// Shared plumbing of the benchmark of record: run arguments, sample
// statistics, the metric report, in-memory spans and the host
// fingerprint. The workloads (cli_workloads.cpp, serve_workload.cpp) only
// time calls into the library's public functions and hand the numbers
// here; nothing in this directory adds tracing inside the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/timer.hpp"

namespace perfbench {

inline constexpr double kMiB = 1024.0 * 1024.0;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< where generated inputs and outputs go
  std::string server_bin;  ///< netalign_server built beside this binary
  std::string result_path; ///< where the machine-readable result goes
  std::string git_sha;     ///< the checkout's commit, as the runner read it
  netalign::obs::JsonValue config;  ///< this workload's workloads.json entry
};

/// Required members of a workload's config; throw when absent.
double cfg_num(const netalign::obs::JsonValue& cfg, const std::string& key);
std::string cfg_str(const netalign::obs::JsonValue& cfg, const std::string& key);

/// Timing samples of one quantity.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double mean() const;
  /// The highest percentile (at most the 95th) that still has at least ten
  /// samples beyond it; with fewer than eleven samples no percentile has,
  /// and the upper quartile stands in. Missing samples (refused or failed
  /// requests) are +inf.
  [[nodiscard]] double tail() const;
  /// Label of the percentile tail() reports, e.g. "p95.0" or "p83.3".
  [[nodiscard]] std::string tail_label() const;

 private:
  std::vector<double> values_;
};

/// Every metric a run produces, by name with its unit, in insertion order.
/// The runner (run.py) picks the ones BENCHMARK.json names.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A failed operation or output check: counted and explained.
  void fail(const std::string& what);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// Free-form facts printed as `info <key> <value>` (sample counts,
  /// instance statistics, percentile labels).
  void info(const std::string& key, const std::string& value);
  [[nodiscard]] std::int64_t failed() const {
    return static_cast<std::int64_t>(failures_.size());
  }
  /// Print the human-readable report to stdout and write the JSON result.
  void emit(const RunArgs& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
};

/// In-memory spans around layer calls (name, parent, start, end in seconds
/// since the log was created), written out once at the end of the run.
class SpanLog {
 public:
  /// Open a span; returns its id for close() and for children's parent.
  int open(const std::string& name, int parent = -1);
  /// Close span `id`; returns its duration in seconds.
  double close(int id);
  /// Sum of the durations of closed spans named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  netalign::WallTimer clock_;
  std::vector<Span> spans_;
};

/// Host fingerprint: nproc, CPU model, OpenMP threads, build type, git sha.
/// Printed on every result so runs from different hosts are not compared
/// silently. The sha is passed in rather than taken from the build, which
/// records the commit it was configured at and is reused across commits.
void add_fingerprint(Report& report, const std::string& git_sha);

/// Peak resident set of another process (VmHWM of /proc/<pid>/status) in
/// bytes, -1 when unreadable.
std::int64_t peak_rss_of(int pid);

/// Stable 64-bit mix of a seed and a stream index (splitmix64), so every
/// generated instance has its own seed derived from the run's seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Entry points of the workloads.
int run_cli_workload(const RunArgs& args, Report& report);
int run_serve_workload(const RunArgs& args, Report& report);

}  // namespace perfbench
