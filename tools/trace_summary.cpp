// Summarize a JSONL run trace (docs/OBSERVABILITY.md) into the per-step
// time table the paper's Figures 6 and 7 report.
//
// Reads the trace produced by --trace-out, groups events into runs at each
// run_start, sums the per-step seconds of every iteration event, and
// prints one {step, seconds, fraction} table per run -- the same layout
// the bench binaries print live, but reconstructed entirely from the
// trace. Also reports the run's iteration/rounding counts, the run_end
// totals, and the final counter registry when present.
//
//   trace_summary trace.jsonl
//   trace_summary --csv steps.csv trace.jsonl
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/jsonl_tail.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace netalign;

namespace {

/// Accumulated view of one run (run_start .. run_end).
struct RunSummary {
  std::string method = "unknown";
  std::vector<std::string> params;  // "key=value" strings from run_start
  std::vector<std::pair<std::string, double>> step_seconds;  // ordered
  std::int64_t iterations = 0;
  std::int64_t rounds = 0;
  bool has_end = false;
  double total_seconds = 0.0;
  double objective = 0.0;
  std::int64_t best_iteration = 0;
  std::string stopped_reason;  // empty when run_end predates the field
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

void add_step(RunSummary& run, const std::string& name, double seconds) {
  for (auto& [step, total] : run.step_seconds) {
    if (step == name) {
      total += seconds;
      return;
    }
  }
  run.step_seconds.emplace_back(name, seconds);
}

/// Render a run_start field value for the header line.
std::string field_repr(const obs::JsonValue& v) {
  using Type = obs::JsonValue::Type;
  switch (v.type()) {
    case Type::kString:
      return v.as_string();
    case Type::kNumber: {
      const double d = v.as_number();
      if (d == static_cast<double>(static_cast<std::int64_t>(d))) {
        return std::to_string(static_cast<std::int64_t>(d));
      }
      return std::to_string(d);
    }
    case Type::kBool:
      return v.as_bool() ? "true" : "false";
    default:
      return "?";
  }
}

void print_run(const RunSummary& run, int index, const std::string& csv) {
  std::printf("== run %d: %s", index, run.method.c_str());
  for (const auto& p : run.params) std::printf(" %s", p.c_str());
  std::printf(" ==\n");

  double grand = 0.0;
  for (const auto& [step, seconds] : run.step_seconds) grand += seconds;
  TextTable table({"step", "seconds", "fraction"});
  for (const auto& [step, seconds] : run.step_seconds) {
    table.add_row({step, TextTable::fixed(seconds, 3),
                   TextTable::pct(grand > 0.0 ? seconds / grand : 0.0)});
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);

  std::printf("iterations=%lld rounds=%lld",
              static_cast<long long>(run.iterations),
              static_cast<long long>(run.rounds));
  if (run.has_end) {
    std::printf(" total=%.3fs objective=%.3f best_iteration=%lld",
                run.total_seconds, run.objective,
                static_cast<long long>(run.best_iteration));
    if (!run.stopped_reason.empty()) {
      std::printf(" stopped=%s", run.stopped_reason.c_str());
    }
  }
  std::printf("\n");
  if (!run.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : run.counters) {
      // Wide enough for squares.implicit_cursor_reuse_hits and friends.
      std::printf("  %-36s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli(
      "trace_summary: per-step time table from a JSONL run trace.\n"
      "usage: trace_summary [flags] TRACE.jsonl");
  auto& csv = cli.add_string("csv", "",
                             "also write each run's step table to this CSV "
                             "(last run wins when the trace has several)");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_summary [flags] TRACE.jsonl\n");
    return 1;
  }
  const std::string path = cli.positional()[0];
  if (!std::ifstream(path)) {
    // The tail reader tolerates a missing file (it may appear later for a
    // live consumer); a one-shot summary should fail loudly instead.
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }

  // Group lines into runs. A trace normally opens with run_start, but a
  // truncated or solver-only trace may not; events before the first
  // run_start fall into an implicit run 0.
  std::vector<RunSummary> runs;
  auto current = [&]() -> RunSummary& {
    if (runs.empty()) runs.emplace_back();
    return runs.back();
  };

  // The writer here is known dead, so the tail-tolerant contract of
  // obs::JsonlTailReader (docs/OBSERVABILITY.md) maps onto one pass:
  // kPending with a partial tail and kTruncatedTail are the crashed
  // writer's cut-off final event (warn and stop); kMalformed mid-stream
  // stays a hard error. The daemon's journal replay shares this reader,
  // so both consumers tolerate exactly the same damage.
  obs::JsonlTailReader reader(path);
  obs::JsonValue doc;
  for (bool done = false; !done;) {
    using Status = obs::JsonlTailReader::Status;
    switch (reader.next(doc)) {
      case Status::kPending:
        if (reader.has_partial_tail()) {
          std::fprintf(
              stderr, "warning: %s:%lld: ignoring truncated final line\n",
              path.c_str(), static_cast<long long>(reader.lineno() + 1));
        }
        done = true;
        continue;
      case Status::kTruncatedTail:
        std::fprintf(stderr,
                     "warning: %s:%lld: ignoring truncated final line\n",
                     path.c_str(), static_cast<long long>(reader.lineno()));
        done = true;
        continue;
      case Status::kMalformed:
        std::fprintf(stderr, "error: %s:%lld: malformed JSON\n", path.c_str(),
                     static_cast<long long>(reader.lineno()));
        return 1;
      case Status::kEvent:
        break;
    }
    const obs::JsonValue* event = doc.find("event");
    if (event == nullptr || !event->is_string()) {
      std::fprintf(stderr, "error: %s:%lld: missing \"event\" field\n",
                   path.c_str(), static_cast<long long>(reader.lineno()));
      return 1;
    }
    const std::string& kind = event->as_string();
    if (kind == "run_start") {
      RunSummary run;
      if (const auto* method = doc.find("method")) {
        run.method = method->as_string();
      }
      // Everything except the envelope and build metadata renders into the
      // header: the thread count plus the caller's parameter fields.
      for (const auto& [key, value] : doc.members()) {
        if (key == "event" || key == "ts" || key == "seq" ||
            key == "method" || key == "omp_schedule" ||
            key == "omp_version" || key == "git_sha" ||
            key == "build_type" || key == "build_flags") {
          continue;
        }
        run.params.push_back(key + "=" + field_repr(value));
      }
      runs.push_back(std::move(run));
    } else if (kind == "iteration") {
      RunSummary& run = current();
      run.iterations += 1;
      if (const auto* steps = doc.find("steps"); steps != nullptr &&
                                                 steps->is_object()) {
        for (const auto& [step, seconds] : steps->members()) {
          add_step(run, step, seconds.as_number());
        }
      }
    } else if (kind == "round") {
      current().rounds += 1;
    } else if (kind == "run_end") {
      RunSummary& run = current();
      run.has_end = true;
      if (const auto* v = doc.find("total_seconds")) {
        run.total_seconds = v->as_number();
      }
      if (const auto* v = doc.find("objective")) {
        run.objective = v->as_number();
      }
      if (const auto* v = doc.find("best_iteration")) {
        run.best_iteration = static_cast<std::int64_t>(v->as_number());
      }
      if (const auto* v = doc.find("stopped_reason");
          v != nullptr && v->is_string()) {
        run.stopped_reason = v->as_string();
      }
      if (const auto* v = doc.find("counters");
          v != nullptr && v->is_object()) {
        for (const auto& [name, value] : v->members()) {
          run.counters.emplace_back(
              name, static_cast<std::int64_t>(value.as_number()));
        }
      }
    }
    // Unknown event types are skipped: the schema is allowed to grow.
  }

  if (runs.empty()) {
    std::printf("no events in %s\n", path.c_str());
    return 0;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    print_run(runs[i], static_cast<int>(i), csv);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
