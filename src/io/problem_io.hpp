// Whole-problem serialization, so benches can generate a stand-in instance
// once and reload it across sweeps, and so users can feed their own data.
//
// Text format (version 1):
//   NETALIGN-PROBLEM 1
//   name <string without spaces>
//   alpha <a> beta <b>
//   graphA <n> <m>         followed by m "u v" lines
//   graphB <n> <m>         followed by m "u v" lines
//   L <na> <nb> <mL>       followed by mL "a b w" lines
//
// The reader is a whitespace tokenizer, so line breaks carry no meaning; the
// accepted token grammar is in docs/FORMATS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netalign/problem.hpp"

namespace netalign {

void write_problem(std::ostream& out, const NetAlignProblem& p);
void write_problem_file(const std::string& path, const NetAlignProblem& p);

/// Reads from the stream's current position through a fixed-size buffer
/// (the stream is never copied whole). A seekable stream is left just past
/// the last token read.
NetAlignProblem read_problem(std::istream& in);
/// Parses text already in memory, in place.
NetAlignProblem read_problem(std::string_view text);
NetAlignProblem read_problem_file(const std::string& path);

}  // namespace netalign
