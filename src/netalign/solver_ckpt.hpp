// Shared checkpoint plumbing for the iterative solvers.
//
// Every solver checkpoint has the same skeleton: a "meta" section tying
// the file to one (solver, problem shape) so a checkpoint can never be
// restored against the wrong problem, and a "progress" section
// holding the loop position, the best-so-far tracker, and the objective
// histories. Solver-specific sections (BP messages, MR multipliers, ...)
// ride next to them. This header centralizes that skeleton plus the
// commit/load paths with their `checkpoint`/`resume` trace events and
// ckpt.* counters, so the three solvers only serialize what is uniquely
// theirs (docs/ARCHITECTURE.md "Preemption & recovery").
#pragma once

#include <string>

#include "io/checkpoint.hpp"
#include "netalign/result.hpp"
#include "netalign/rounding.hpp"

namespace netalign::obs {
class Counters;
class TraceWriter;
}  // namespace netalign::obs

namespace netalign::ckpt {

inline constexpr char kMetaSection[] = "meta";
inline constexpr char kProgressSection[] = "progress";

/// Append the "meta" section: solver tag, |E_L|, nnz(S), and a rank
/// field that is always 0 (it held the simulated rank count of the
/// retired distributed solvers; kept so the layout never changed).
void write_meta(io::Checkpoint& c, const std::string& solver, eid_t m,
                eid_t nnz);

/// Validate a loaded checkpoint's "meta" against the resuming
/// configuration; throws std::runtime_error naming the first mismatch.
void check_meta(const io::Checkpoint& c, const std::string& solver, eid_t m,
                eid_t nnz, const char* where);

/// Append the "progress" section: last completed iteration, tracker
/// state, and both histories.
void write_progress(io::Checkpoint& c, int iter,
                    const BestSolutionTracker& tracker,
                    const AlignResult& result);

/// Restore the "progress" section into `tracker` and the result's
/// histories; returns the last completed iteration.
int read_progress(const io::Checkpoint& c, BestSolutionTracker& tracker,
                  AlignResult& result);

/// Serialize + atomically write `c` to `path`, emit a `checkpoint` trace
/// event for iteration `iter`, and bump ckpt.writes / ckpt.bytes.
void commit_checkpoint(const io::Checkpoint& c, const std::string& path,
                       int iter, obs::TraceWriter* trace,
                       obs::Counters* counters);

struct ResumeState {
  io::Checkpoint checkpoint;  ///< solver-specific sections read from here
  int iter = 0;               ///< last completed iteration at save time
};

/// Load `path` (falling back to the previous generation on corruption),
/// validate its meta, restore the progress section into `tracker` and the
/// result's histories, emit a `resume` trace event, and bump
/// ckpt.restores (and ckpt.fallbacks when the `.prev` generation loaded).
[[nodiscard]] ResumeState load_for_resume(
    const std::string& path, const std::string& solver, eid_t m, eid_t nnz,
    const char* where, BestSolutionTracker& tracker, AlignResult& result,
    obs::TraceWriter* trace, obs::Counters* counters);

}  // namespace netalign::ckpt
