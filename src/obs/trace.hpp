// Structured run telemetry: JSON Lines event traces.
//
// The paper's core claims (Figures 2-7) are statements about per-iteration,
// per-step behaviour -- objective vs. upper bound per MR iteration, step
// time breakdowns, rounding quality per event. TraceWriter captures exactly
// that as one JSON object per line so any scripting language can consume a
// run; docs/OBSERVABILITY.md documents the schema, and tools/trace_summary
// regenerates the Figure-6/7-style step-time table from a trace.
//
// Event stream of one run:
//   run_start   once, from the harness (bench / CLI / example): run
//               metadata (threads, OMP schedule, git SHA, build flags)
//               plus the caller's parameter fields
//   iteration   one per BP/MR iteration, from the solver: damping/step
//               size, per-step seconds, objective and bound when the
//               method computes them per iteration
//   round       one per rounding event, from the solver: matcher,
//               matching weight / overlap / cardinality, objective
//   run_end     once, from the harness: totals, best solution, counters
//
// Solvers take a nullable TraceWriter* option; the hot path pays nothing
// when it is null (one pointer test per iteration). A TraceWriter
// constructed over a null stream or an empty sink is inert: every emit is
// a no-op, so a "disabled" writer can also be passed around safely.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace netalign::obs {

class Counters;

/// Environment captured into every run_start event: what you need to know
/// to interpret (or distrust) the numbers in the rest of the trace.
struct RunMetadata {
  int max_threads = 1;        ///< omp_get_max_threads() at capture time
  std::string omp_schedule;   ///< runtime schedule, e.g. "dynamic,1000"
  int omp_version = 0;        ///< the _OPENMP date macro
  std::string git_sha;        ///< short commit SHA baked in at build time
  std::string build_type;     ///< CMAKE_BUILD_TYPE
  std::string build_flags;    ///< compiler flags of that build type
};

/// Capture the current environment (thread count and schedule are read at
/// call time, the build identity is baked in by CMake).
RunMetadata run_metadata();

class TraceWriter {
 public:
  /// One extra key/value in an event's flat field list.
  class Field {
   public:
    Field(std::string key, double v)
        : key_(std::move(key)), kind_(Kind::kDouble), d_(v) {}
    Field(std::string key, std::int64_t v)
        : key_(std::move(key)), kind_(Kind::kInt), i_(v) {}
    Field(std::string key, int v) : Field(std::move(key), std::int64_t{v}) {}
    Field(std::string key, bool v)
        : key_(std::move(key)), kind_(Kind::kBool), b_(v) {}
    Field(std::string key, std::string v)
        : key_(std::move(key)), kind_(Kind::kString), s_(std::move(v)) {}
    Field(std::string key, const char* v)
        : Field(std::move(key), std::string(v)) {}

   private:
    friend class TraceWriter;
    enum class Kind { kDouble, kInt, kBool, kString };
    std::string key_;
    Kind kind_;
    double d_ = 0.0;
    std::int64_t i_ = 0;
    bool b_ = false;
    std::string s_;
  };
  using Fields = std::vector<Field>;

  /// Receives each finished event line: one compact JSON object, without
  /// a trailing newline. The writer calls it under its lock, in `seq`
  /// order.
  using LineSink = std::function<void(std::string&& line)>;

  /// Deliver every event line to `sink`. An empty sink makes a disabled
  /// writer whose emits are all no-ops.
  explicit TraceWriter(LineSink sink);

  /// Write to `out` (not owned; must outlive the writer), one flushed line
  /// per event. nullptr makes a disabled writer.
  explicit TraceWriter(std::ostream* out);

  /// Open `path` for writing (owned). Throws std::runtime_error when the
  /// file cannot be opened.
  explicit TraceWriter(const std::string& path);

  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  [[nodiscard]] bool enabled() const { return static_cast<bool>(sink_); }

  /// Emit run_start: method name, captured run_metadata(), and the
  /// caller's parameters (problem name, sizes, gamma, iters, ...).
  void run_start(const std::string& method, const Fields& params = {});

  /// Emit one iteration event. `steps` holds this iteration's per-step
  /// seconds (a StepTimers the solver clears each iteration); `extra`
  /// carries method-specific series (objective, upper bound, ...).
  void iteration(int iter, double gamma, const StepTimers& steps,
                 const Fields& extra = {});

  /// Emit one rounding event with the matching's quality decomposition.
  void round(int iter, const std::string& matcher, std::int64_t cardinality,
             double weight, double overlap, double objective);

  /// Emit run_end with the run's totals and, when given, the final
  /// counter registry as a nested object. `extra` carries harness fields
  /// such as stopped_reason / iterations_completed for truncated runs.
  void run_end(double total_seconds, double objective, int best_iteration,
               const Counters* counters = nullptr, const Fields& extra = {});

  /// Emit a generic event: `type` plus a flat field list. For event kinds
  /// that do not merit a dedicated emitter (e.g. the fault-injection
  /// layer's `fault` events).
  void event(const std::string& type, const Fields& fields);

 private:
  void write_line(std::string&& line);
  /// Start a line: {"event":"<type>","ts":<seconds>,"seq":<n> -- caller
  /// appends fields and calls write_line.
  [[nodiscard]] std::string begin_event(const char* type);
  static void append_fields(std::string& line, const Fields& fields);

  std::unique_ptr<std::ostream> owned_;
  LineSink sink_;  // empty = disabled
  WallTimer clock_;
  std::int64_t seq_ = 0;
  std::mutex mutex_;
};

}  // namespace netalign::obs
