// Deadline/budget-aware execution for the iterative solvers.
//
// Klau-style MR is explicitly an anytime scheme (every iteration yields a
// feasible rounded matching and a bound) and BP decouples rounding from
// iteration the same way, so a solver interrupted at iteration k can
// return its best-so-far answer and a checkpoint instead of dying with
// nothing. SolveBudget is the knob bundle that turns that on: a
// wall-clock deadline, a checkpoint cadence and paths, and a cooperative
// stop latch (set by the SIGTERM/SIGINT handler in util/stop.hpp).
//
// All three solvers (belief_prop, klau_mr, isorank) check the budget at
// the top of each iteration: a tripped deadline or stop latch writes a
// final checkpoint of the last *completed* iteration and returns with
// `stopped_reason` set in the AlignResult. Resume is bit-identical: only
// loop-carried state is checkpointed, and restoring it replays the
// remaining iterations exactly as the uninterrupted run would have
// computed them (tools/check_recovery.sh enforces this).
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace netalign {

/// Why a solver returned (AlignResult::stopped_reason).
enum class StopReason {
  kCompleted,  ///< ran to max_iterations (or converged)
  kDeadline,   ///< SolveBudget::deadline_seconds elapsed
  kSignal,     ///< the stop latch was set (SIGTERM/SIGINT)
  kCancelled,  ///< the per-run cancel latch was set (server job cancel)
};

[[nodiscard]] constexpr const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kSignal:
      return "signal";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct SolveBudget {
  /// Stop after this much wall clock (0 = no deadline). Measured from
  /// solver entry of the current process; a resumed run gets a fresh
  /// deadline.
  double deadline_seconds = 0.0;
  /// Write a checkpoint every N completed iterations (0 = only at a
  /// stop/deadline/end of run). Requires checkpoint_path.
  int checkpoint_every = 0;
  /// Where checkpoints go (empty = checkpointing off). Written via
  /// temp-file + atomic rename; the previous generation is kept at
  /// `<path>.prev` (io/checkpoint.hpp).
  std::string checkpoint_path;
  /// Resume from this checkpoint before the first iteration (empty = a
  /// fresh run). A corrupt newest generation falls back to `.prev`.
  std::string resume_path;
  /// Cooperative stop latch, usually install_stop_signal_handlers()'s.
  /// Null = never stops on signal.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Per-run cancellation latch for external callers (the server sets one
  /// per job). Same polling contract as stop_flag, but scoped to this run
  /// instead of the whole process, and reported as kCancelled so a
  /// cancelled job is distinguishable from a daemon-wide SIGTERM.
  const std::atomic<bool>* cancel_flag = nullptr;

  [[nodiscard]] bool stop_requested() const {
    return stop_flag != nullptr && stop_flag->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_flag != nullptr &&
           cancel_flag->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool deadline_exceeded(double elapsed_seconds) const {
    return deadline_seconds > 0.0 && elapsed_seconds >= deadline_seconds;
  }

  /// One-stop per-iteration poll: the first tripped condition wins, in
  /// the order cancel > signal > deadline; kCompleted when none tripped.
  /// Solvers call this at the top of each iteration and break out on
  /// anything other than kCompleted.
  [[nodiscard]] StopReason interruption(double elapsed_seconds) const {
    if (cancel_requested()) return StopReason::kCancelled;
    if (stop_requested()) return StopReason::kSignal;
    if (deadline_exceeded(elapsed_seconds)) return StopReason::kDeadline;
    return StopReason::kCompleted;
  }
  [[nodiscard]] bool checkpoint_due(int completed_iter) const {
    return checkpoint_every > 0 && !checkpoint_path.empty() &&
           completed_iter % checkpoint_every == 0;
  }

  /// Reject contradictory settings up front, like the solvers' own option
  /// validation. `where` names the calling solver in the message.
  void validate(const char* where) const {
    if (deadline_seconds < 0.0 || checkpoint_every < 0) {
      throw std::invalid_argument(std::string(where) + ": bad budget");
    }
    if (checkpoint_every > 0 && checkpoint_path.empty()) {
      throw std::invalid_argument(
          std::string(where) +
          ": checkpoint_every requires a checkpoint_path");
    }
  }
};

}  // namespace netalign
