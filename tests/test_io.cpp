#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "io/edge_list.hpp"
#include "io/problem_io.hpp"
#include "io/smat.hpp"
#include "io/validate.hpp"
#include "netalign/synthetic.hpp"
#include "util/prng.hpp"

namespace netalign {
namespace {

// Runs `fn` and returns the thrown runtime_error's message ("" if it did
// not throw), so tests can assert on the diagnostic text.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Smat, RoundTripsThroughText) {
  const std::vector<CooEntry> entries = {
      {0, 1, 1.5}, {2, 0, -2.0}, {2, 2, 0.25}};
  const CsrMatrix m = CsrMatrix::from_coo(3, 3, entries);
  std::stringstream ss;
  write_smat(ss, m);
  const CsrMatrix r = read_smat(ss);
  EXPECT_EQ(r.num_rows(), 3);
  EXPECT_EQ(r.num_cols(), 3);
  ASSERT_EQ(r.num_nonzeros(), 3);
  for (vid_t row = 0; row < 3; ++row) {
    for (eid_t k = m.row_begin(row); k < m.row_end(row); ++k) {
      const eid_t k2 = r.find(row, m.col_idx()[k]);
      ASSERT_NE(k2, kInvalidEid);
      EXPECT_DOUBLE_EQ(r.values()[k2], m.values()[k]);
    }
  }
}

TEST(Smat, HeaderParses) {
  std::stringstream ss("2 3 1\n0 2 4.5\n");
  const CsrMatrix m = read_smat(ss);
  EXPECT_EQ(m.num_rows(), 2);
  EXPECT_EQ(m.num_cols(), 3);
  EXPECT_EQ(m.values()[0], 4.5);
}

TEST(Smat, TruncatedInputThrows) {
  std::stringstream ss("2 2 2\n0 0 1.0\n");
  EXPECT_THROW(read_smat(ss), std::runtime_error);
}

TEST(Smat, BadHeaderThrows) {
  std::stringstream ss("hello\n");
  EXPECT_THROW(read_smat(ss), std::runtime_error);
}

TEST(Smat, MissingFileThrows) {
  EXPECT_THROW(read_smat_file("/nonexistent/path.smat"), std::runtime_error);
}

TEST(EdgeList, RoundTripsThroughText) {
  Xoshiro256 rng(3);
  const Graph g = erdos_renyi(50, 0.1, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph r = read_edge_list(ss, 50);
  EXPECT_EQ(r.num_edges(), g.num_edges());
  for (const auto& [u, v] : g.edge_list()) EXPECT_TRUE(r.has_edge(u, v));
}

TEST(EdgeList, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\n0 1\n  # indented comment\n1 2\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(EdgeList, InfersVertexCount) {
  std::stringstream ss("0 7\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 8);
}

TEST(EdgeList, MalformedLineThrows) {
  std::stringstream ss("0 not-a-number\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, NegativeIdThrows) {
  std::stringstream ss("0 -3\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(ProblemIo, RoundTripsSyntheticInstance) {
  PowerLawInstanceOptions opt;
  opt.n = 60;
  opt.seed = 77;
  const auto inst = make_power_law_instance(opt);
  std::stringstream ss;
  write_problem(ss, inst.problem);
  const NetAlignProblem r = read_problem(ss);

  EXPECT_EQ(r.name, inst.problem.name);
  EXPECT_EQ(r.alpha, inst.problem.alpha);
  EXPECT_EQ(r.beta, inst.problem.beta);
  EXPECT_EQ(r.A.num_edges(), inst.problem.A.num_edges());
  EXPECT_EQ(r.B.num_edges(), inst.problem.B.num_edges());
  ASSERT_EQ(r.L.num_edges(), inst.problem.L.num_edges());
  for (eid_t e = 0; e < r.L.num_edges(); ++e) {
    EXPECT_EQ(r.L.edge_a(e), inst.problem.L.edge_a(e));
    EXPECT_EQ(r.L.edge_b(e), inst.problem.L.edge_b(e));
    EXPECT_DOUBLE_EQ(r.L.edge_weight(e), inst.problem.L.edge_weight(e));
  }
}

TEST(ProblemIo, RejectsWrongMagic) {
  std::stringstream ss("NOT-A-PROBLEM 1\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsWrongVersion) {
  std::stringstream ss("NETALIGN-PROBLEM 99\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsTruncatedBody) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 3 5\n0 1\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

// --- validate.hpp helpers, exercised directly ---------------------------

TEST(IoValidate, AtByteReportsPositionEvenAfterFailedExtraction) {
  std::stringstream ss("12 oops");
  int v = 0;
  ss >> v;       // consumes "12"
  ss >> v;       // fails on "oops"
  ASSERT_TRUE(ss.fail());
  const std::string suffix = io::at_byte(ss);
  EXPECT_NE(suffix.find("(at byte"), std::string::npos) << suffix;
  EXPECT_TRUE(ss.fail()) << "at_byte must restore the stream state";
}

TEST(IoValidate, FailAppendsBytePosition) {
  std::stringstream ss("abcdef");
  std::string tok;
  ss >> tok;
  const std::string msg = error_of([&] { io::fail(ss, "loader: boom"); });
  EXPECT_NE(msg.find("loader: boom"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(at byte 6)"), std::string::npos) << msg;
}

TEST(IoValidate, CheckRecordCountRejectsNegative) {
  std::stringstream ss("");
  const std::string msg =
      error_of([&] { io::check_record_count(ss, -3, 4, "loader"); });
  EXPECT_NE(msg.find("negative count -3"), std::string::npos) << msg;
}

TEST(IoValidate, CheckRecordCountRejectsAllocationBomb) {
  std::stringstream ss("0 0\n0 1\n");
  const std::string msg = error_of(
      [&] { io::check_record_count(ss, std::int64_t{1} << 60, 3, "loader"); });
  EXPECT_NE(msg.find("cannot fit"), std::string::npos) << msg;
}

TEST(IoValidate, CheckRecordCountAcceptsPlausibleCounts) {
  std::stringstream ss("0 0\n0 1\n");
  io::check_record_count(ss, 2, 3, "loader");
  // Position must be restored so record parsing resumes where it was.
  int a = -1, b = -1;
  ss >> a >> b;
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
}

TEST(IoValidate, RequireFiniteRejectsNanAndInf) {
  std::stringstream ss;
  EXPECT_THROW(io::require_finite(
                   ss, std::numeric_limits<double>::quiet_NaN(), "loader: w"),
               std::runtime_error);
  EXPECT_THROW(io::require_finite(
                   ss, std::numeric_limits<double>::infinity(), "loader: w"),
               std::runtime_error);
  io::require_finite(ss, 1.0, "loader: w");  // finite passes
}

// --- every loader throw path --------------------------------------------

TEST(Smat, NegativeDimensionThrows) {
  std::stringstream ss("-1 2 0\n");
  EXPECT_THROW(read_smat(ss), std::runtime_error);
}

TEST(Smat, NegativeNnzThrows) {
  std::stringstream ss("2 2 -1\n");
  const std::string msg = error_of([&] { read_smat(ss); });
  EXPECT_NE(msg.find("negative count"), std::string::npos) << msg;
}

TEST(Smat, AllocationBombHeaderThrows) {
  // 10^9 entries declared, a dozen bytes present: must be rejected before
  // the reserve, not by running out of input a gigabyte later.
  std::stringstream ss("2 2 1000000000\n0 0 1.0\n");
  const std::string msg = error_of([&] { read_smat(ss); });
  EXPECT_NE(msg.find("cannot fit"), std::string::npos) << msg;
}

TEST(Smat, TruncatedEntryReportsIndexAndByte) {
  // Trailing spaces keep the byte budget plausible so the failure is the
  // actual truncated read, not the count guard.
  std::stringstream ss("2 2 2\n0 0 1.0\n                \n");
  const std::string msg = error_of([&] { read_smat(ss); });
  EXPECT_NE(msg.find("entry 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(at byte"), std::string::npos) << msg;
}

TEST(Smat, TextualNanValueThrows) {
  std::stringstream ss("1 1 1\n0 0 nan\n");
  EXPECT_THROW(read_smat(ss), std::runtime_error);
}

TEST(Smat, WriteFileToBadPathThrows) {
  const std::vector<CooEntry> none;
  EXPECT_THROW(write_smat_file("/nonexistent/dir/out.smat",
                               CsrMatrix::from_coo(1, 1, none)),
               std::runtime_error);
}

TEST(Smat, FileRoundTrip) {
  const std::vector<CooEntry> entries = {{0, 1, 1.5}, {1, 2, -0.5}};
  const CsrMatrix m = CsrMatrix::from_coo(2, 3, entries);
  const std::string path = temp_path("roundtrip.smat");
  write_smat_file(path, m);
  const CsrMatrix r = read_smat_file(path);
  EXPECT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.num_nonzeros(), 2);
  EXPECT_DOUBLE_EQ(r.values()[r.find(1, 2)], -0.5);
  std::remove(path.c_str());
}

TEST(EdgeList, MalformedLineQuotesContent) {
  std::stringstream ss("0 1\n0 not-a-number\n");
  const std::string msg = error_of([&] { read_edge_list(ss); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'0 not-a-number'"), std::string::npos) << msg;
}

TEST(EdgeList, MalformedLineContentIsTruncated) {
  std::stringstream ss("x" + std::string(300, 'y') + "\n");
  const std::string msg = error_of([&] { read_edge_list(ss); });
  EXPECT_NE(msg.find("...'"), std::string::npos) << msg;
  EXPECT_LT(msg.size(), 200u) << msg;
}

TEST(EdgeList, NegativeIdQuotesContent) {
  std::stringstream ss("0 -3\n");
  const std::string msg = error_of([&] { read_edge_list(ss); });
  EXPECT_NE(msg.find("'0 -3'"), std::string::npos) << msg;
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path.txt"),
               std::runtime_error);
}

TEST(EdgeList, WriteFileToBadPathThrows) {
  EXPECT_THROW(write_edge_list_file("/nonexistent/dir/out.txt",
                                    Graph::from_edges(1, {})),
               std::runtime_error);
}

TEST(EdgeList, FileRoundTrip) {
  Xoshiro256 rng(9);
  const Graph g = erdos_renyi(20, 0.2, rng);
  const std::string path = temp_path("roundtrip.edges");
  write_edge_list_file(path, g);
  const Graph r = read_edge_list_file(path, 20);
  EXPECT_EQ(r.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(ProblemIo, RejectsMissingToken) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 gamma 2\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("expected token 'beta'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(at byte"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsBadName) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsNonNumericAlpha) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha huge beta 1\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsNonNumericBeta) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta ?\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsBadGraphHeader) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA three 5\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("graphA header"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsNegativeGraphVertexCount) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA -4 0\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("negative graphA vertex count"), std::string::npos)
      << msg;
}

TEST(ProblemIo, RejectsGraphAllocationBombHeader) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 3 888888888\n0 1\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("cannot fit"), std::string::npos) << msg;
}

TEST(ProblemIo, ReportsTruncatedGraphEdgeList) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 3 2\n0 1\n            \n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("graphA edge list at edge 1"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsBadLHeader) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 1 0\ngraphB 1 0\nL x 1 0\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("bad L header"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsNegativeLDimension) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 1 0\ngraphB 1 0\nL -1 1 0\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("negative L dimension"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsLAllocationBombHeader) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 1 0\ngraphB 1 0\nL 1 1 777777777\n0 0 1.0\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("cannot fit"), std::string::npos) << msg;
}

TEST(ProblemIo, ReportsTruncatedLEdgeList) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 1 0\ngraphB 1 0\nL 1 1 2\n0 0 1.0\n"
                       "                \n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("L edge list at edge 1"), std::string::npos) << msg;
}

TEST(ProblemIo, RejectsTextualNanWeight) {
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 1 0\ngraphB 1 0\nL 1 1 1\n0 0 nan\n");
  EXPECT_THROW(read_problem(ss), std::runtime_error);
}

TEST(ProblemIo, RejectsInconsistentDimensions) {
  // L claims 3 A-side vertices while graphA has 2.
  std::stringstream ss("NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\n"
                       "graphA 2 0\ngraphB 2 0\nL 3 2 0\n");
  const std::string msg = error_of([&] { read_problem(ss); });
  EXPECT_NE(msg.find("inconsistent dimensions"), std::string::npos) << msg;
}

TEST(ProblemIo, MissingFileThrows) {
  EXPECT_THROW(read_problem_file("/nonexistent/path.prob"),
               std::runtime_error);
}

TEST(ProblemIo, WriteFileToBadPathThrows) {
  EXPECT_THROW(write_problem_file("/nonexistent/dir/out.prob", {}),
               std::runtime_error);
}

TEST(ProblemIo, FileRoundTrip) {
  PowerLawInstanceOptions opt;
  opt.n = 30;
  opt.seed = 5;
  const auto inst = make_power_law_instance(opt);
  const std::string path = temp_path("roundtrip.prob");
  write_problem_file(path, inst.problem);
  const NetAlignProblem r = read_problem_file(path);
  EXPECT_EQ(r.L.num_edges(), inst.problem.L.num_edges());
  EXPECT_EQ(r.A.num_edges(), inst.problem.A.num_edges());
  EXPECT_EQ(r.B.num_edges(), inst.problem.B.num_edges());
  std::remove(path.c_str());
}

// --- tokenizer grammar: every spelling reads equal to the canonical file --

const char* const kCanonical =
    "NETALIGN-PROBLEM 1\n"
    "name tiny\n"
    "alpha 1 beta 2\n"
    "graphA 3 2\n0 1\n1 2\n"
    "graphB 3 2\n0 2\n2 1\n"
    "L 3 3 4\n0 0 1.5\n1 2 0.00001\n2 1 0.25\n0 2 3\n";

std::vector<std::string> tokens_of(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

// Re-joins the canonical tokens, `line` tokens per line (0 = one line),
// with `sep` inside a line and `eol` between lines; `spell` may rewrite
// each token.
template <typename Spell>
std::string respell(const std::string& sep, const std::string& eol,
                    std::size_t line, Spell&& spell) {
  const auto toks = tokens_of(kCanonical);
  std::string out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (i > 0) out += (line > 0 && i % line == 0) ? eol : sep;
    out += spell(toks[i]);
  }
  return out;
}

std::string same(const std::string& tok) { return tok; }

bool is_number(const std::string& tok) {
  return tok.find_first_not_of("0123456789.") == std::string::npos;
}

void expect_same_problem(const NetAlignProblem& a, const NetAlignProblem& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
  for (const auto* pair : {&a.A, &a.B}) {
    const Graph& ga = *pair;
    const Graph& gb = pair == &a.A ? b.A : b.B;
    ASSERT_EQ(ga.num_vertices(), gb.num_vertices());
    ASSERT_EQ(ga.num_edges(), gb.num_edges());
    for (vid_t v = 0; v < ga.num_vertices(); ++v) {
      const auto na = ga.neighbors(v), nb = gb.neighbors(v);
      EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    }
  }
  ASSERT_EQ(a.L.num_edges(), b.L.num_edges());
  EXPECT_EQ(a.L.num_a(), b.L.num_a());
  EXPECT_EQ(a.L.num_b(), b.L.num_b());
  for (eid_t e = 0; e < a.L.num_edges(); ++e) {
    EXPECT_EQ(a.L.edge_a(e), b.L.edge_a(e));
    EXPECT_EQ(a.L.edge_b(e), b.L.edge_b(e));
    EXPECT_EQ(a.L.edge_weight(e), b.L.edge_weight(e));
    EXPECT_EQ(a.L.col_edge(e), b.L.col_edge(e));
  }
}

NetAlignProblem read_text(const std::string& text) {
  std::istringstream in(text);
  return read_problem(in);
}

TEST(ProblemIoGrammar, CanonicalFileReads) {
  const NetAlignProblem p = read_text(kCanonical);
  EXPECT_EQ(p.name, "tiny");
  EXPECT_EQ(p.A.num_edges(), 2);
  ASSERT_EQ(p.L.num_edges(), 4);
  EXPECT_EQ(p.L.edge_weight(p.L.find_edge(1, 2)), 1e-05);
}

TEST(ProblemIoGrammar, Tabs) {
  expect_same_problem(read_text(respell("\t", "\n", 3, same)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, Crlf) {
  expect_same_problem(read_text(respell(" ", "\r\n", 3, same)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, EveryWhitespaceCharacter) {
  expect_same_problem(read_text(respell(" \t\v", "\f\r\n ", 2, same)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, SeveralRecordsPerLine) {
  expect_same_problem(read_text(respell(" ", "\n", 0, same)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, RecordSplitAcrossLines) {
  expect_same_problem(read_text(respell("\n", "\n", 1, same)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, LeadingPlus) {
  const auto plus = [](const std::string& tok) {
    return is_number(tok) ? "+" + tok : tok;
  };
  expect_same_problem(read_text(respell(" ", "\n", 3, plus)),
                      read_text(kCanonical));
}

TEST(ProblemIoGrammar, ExponentForms) {
  const std::string text =
      "NETALIGN-PROBLEM 1\nname tiny\nalpha 1e0 beta 0.2E+1\n"
      "graphA 3 2\n0 1\n1 2\ngraphB 3 2\n0 2\n2 1\n"
      "L 3 3 4\n0 0 15e-1\n1 2 1e-05\n2 1 .25\n0 2 3.\n";
  expect_same_problem(read_text(text), read_text(kCanonical));
}

TEST(ProblemIoGrammar, NegativeZero) {
  const auto neg = [](const std::string& tok) {
    return tok == "0" ? std::string("-0") : tok;
  };
  expect_same_problem(read_text(respell(" ", "\n", 3, neg)),
                      read_text(kCanonical));
  // A weight of -0 reads as negative zero, as operator>> would read it.
  const NetAlignProblem p = read_problem(
      "NETALIGN-PROBLEM 1 name x alpha 1 beta 1 graphA 1 0 graphB 1 0 "
      "L 1 1 1 0 0 -0");
  EXPECT_TRUE(std::signbit(p.L.edge_weight(0)));
}

TEST(ProblemIoGrammar, UnderflowReadsAsZeroAndOverflowIsRejected) {
  const std::string head =
      "NETALIGN-PROBLEM 1 name x alpha 1 beta 1 graphA 1 0 graphB 1 0 "
      "L 1 1 1 0 0 ";
  EXPECT_EQ(read_problem(head + "1e-400").L.edge_weight(0), 0.0);
  const std::string msg = error_of([&] { read_problem(head + "1e400"); });
  EXPECT_NE(msg.find("L edge list at edge 0"), std::string::npos) << msg;
}

TEST(ProblemIoGrammar, TokensMustBeWholeNumbers) {
  for (const char* bad : {"1x", "+-1", "0x10", "1.5"}) {
    const std::string text =
        std::string("NETALIGN-PROBLEM 1 name x alpha 1 beta 1 graphA 2 1 ") +
        "0 " + bad + " graphB 1 0 L 2 1 0";
    const std::string msg = error_of([&] { read_problem(text); });
    EXPECT_NE(msg.find("graphA edge list at edge 0"), std::string::npos)
        << bad << ": " << msg;
  }
}

TEST(ProblemIoGrammar, StringViewAndStreamAgree) {
  PowerLawInstanceOptions opt;
  opt.n = 80;
  opt.seed = 3;
  const auto inst = make_power_law_instance(opt);
  std::stringstream ss;
  write_problem(ss, inst.problem);
  const std::string text = ss.str();
  expect_same_problem(read_problem(std::string_view(text)), read_text(text));
  expect_same_problem(read_problem(std::string_view(text)), inst.problem);
}

TEST(ProblemIoGrammar, StreamIsLeftPastTheLastToken) {
  std::stringstream ss(std::string(kCanonical) + "TRAILER 7\n");
  (void)read_problem(ss);
  std::string tok;
  ss >> tok;
  EXPECT_EQ(tok, "TRAILER");
}

// A stream whose reads return 1..7 bytes in turn, so tokens straddle every
// refill of the reader's buffer. Not seekable, like a pipe.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string text) : text_(std::move(text)) {}

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const auto left = static_cast<std::streamsize>(text_.size() - pos_);
    const std::streamsize got = std::min({n, left, step_});
    std::memcpy(s, text_.data() + pos_, static_cast<std::size_t>(got));
    pos_ += static_cast<std::size_t>(got);
    step_ = step_ % 7 + 1;
    return got;
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
  std::streamsize step_ = 1;
};

TEST(ProblemIoGrammar, TokensStraddlingEveryRefillBoundary) {
  PowerLawInstanceOptions opt;
  opt.n = 60;
  opt.seed = 11;
  const auto inst = make_power_law_instance(opt);
  std::stringstream ss;
  write_problem(ss, inst.problem);
  for (const std::string& text :
       {ss.str(), respell("\t", "\r\n", 2, same)}) {
    TrickleBuf buf(text);
    std::istream in(&buf);
    expect_same_problem(read_problem(in), read_problem(std::string_view(text)));
  }
}

TEST(ProblemIoGrammar, TruncatedLRecordReportsExactByte) {
  const std::string text =
      "NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\ngraphA 1 0\n"
      "graphB 1 0\nL 1 1 3\n0 0 1.0\n0 zz 1.0\n0 0 1.0\n";
  const std::string want =
      "read_problem: truncated L edge list at edge 1 (at byte " +
      std::to_string(text.find("zz")) + ")";
  EXPECT_EQ(error_of([&] { read_text(text); }), want);
  EXPECT_EQ(error_of([&] { read_problem(std::string_view(text)); }), want);
  TrickleBuf buf(text);
  std::istream in(&buf);
  EXPECT_EQ(error_of([&] { read_problem(in); }), want);
  // Input that ends mid-record reports the input's length.
  const std::string cut =
      "NETALIGN-PROBLEM 1\nname x\nalpha 1 beta 2\ngraphA 1 0\n"
      "graphB 1 0\nL 1 1 2\n0 0 1.0\n0 ";
  EXPECT_EQ(error_of([&] { read_problem(std::string_view(cut)); }),
            "read_problem: truncated L edge list at edge 1 (at byte " +
                std::to_string(cut.size()) + ")");
}

}  // namespace
}  // namespace netalign
