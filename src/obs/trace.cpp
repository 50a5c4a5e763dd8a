#include "obs/trace.hpp"

#include <omp.h>

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/json.hpp"

// Build identity baked in by src/CMakeLists.txt; the fallbacks keep the
// file compilable outside the CMake build (e.g. quick compiler checks).
#ifndef NETALIGN_GIT_SHA
#define NETALIGN_GIT_SHA "unknown"
#endif
#ifndef NETALIGN_BUILD_TYPE
#define NETALIGN_BUILD_TYPE "unknown"
#endif
#ifndef NETALIGN_BUILD_FLAGS
#define NETALIGN_BUILD_FLAGS ""
#endif

namespace netalign::obs {

RunMetadata run_metadata() {
  RunMetadata meta;
  meta.max_threads = omp_get_max_threads();
  omp_sched_t kind{};
  int chunk = 0;
  omp_get_schedule(&kind, &chunk);
  // The omp_sched_monotonic modifier may be OR-ed into the high bit; mask
  // it off before naming the base schedule.
  const unsigned base = static_cast<unsigned>(kind) & 0x7fffffffu;
  const char* name = "unknown";
  if (base == static_cast<unsigned>(omp_sched_static)) {
    name = "static";
  } else if (base == static_cast<unsigned>(omp_sched_dynamic)) {
    name = "dynamic";
  } else if (base == static_cast<unsigned>(omp_sched_guided)) {
    name = "guided";
  } else if (base == static_cast<unsigned>(omp_sched_auto)) {
    name = "auto";
  }
  meta.omp_schedule = std::string(name) + "," + std::to_string(chunk);
  meta.omp_version = _OPENMP;
  meta.git_sha = NETALIGN_GIT_SHA;
  meta.build_type = NETALIGN_BUILD_TYPE;
  meta.build_flags = NETALIGN_BUILD_FLAGS;
  return meta;
}

namespace {

TraceWriter::LineSink stream_sink(std::ostream* out) {
  if (out == nullptr) return {};
  return [out](std::string&& line) {
    line.push_back('\n');
    // Flush per event: a SIGKILLed run then loses at most the line being
    // written (readers tolerate a truncated final line), never buffered
    // events. One line per iteration makes the flush cost noise.
    *out << line << std::flush;
  };
}

}  // namespace

TraceWriter::TraceWriter(LineSink sink) : sink_(std::move(sink)) {}

TraceWriter::TraceWriter(std::ostream* out) : sink_(stream_sink(out)) {}

TraceWriter::TraceWriter(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)) {
  if (!*owned_) {
    throw std::runtime_error("TraceWriter: cannot open " + path);
  }
  sink_ = stream_sink(owned_.get());
}

TraceWriter::~TraceWriter() = default;

std::string TraceWriter::begin_event(const char* type) {
  std::string line = "{\"event\":";
  append_json_string(line, type);
  line += ",\"ts\":";
  append_json_number(line, clock_.seconds());
  line += ",\"seq\":";
  append_json_number(line, seq_);
  return line;
}

void TraceWriter::append_fields(std::string& line, const Fields& fields) {
  for (const Field& f : fields) {
    line.push_back(',');
    append_json_string(line, f.key_);
    line.push_back(':');
    switch (f.kind_) {
      case Field::Kind::kDouble:
        append_json_number(line, f.d_);
        break;
      case Field::Kind::kInt:
        append_json_number(line, f.i_);
        break;
      case Field::Kind::kBool:
        line += f.b_ ? "true" : "false";
        break;
      case Field::Kind::kString:
        append_json_string(line, f.s_);
        break;
    }
  }
}

void TraceWriter::write_line(std::string&& line) {
  line.push_back('}');
  sink_(std::move(line));
  ++seq_;
}

void TraceWriter::run_start(const std::string& method, const Fields& params) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const RunMetadata meta = run_metadata();
  std::string line = begin_event("run_start");
  line += ",\"method\":";
  append_json_string(line, method);
  line += ",\"threads\":";
  append_json_number(line, std::int64_t{meta.max_threads});
  line += ",\"omp_schedule\":";
  append_json_string(line, meta.omp_schedule);
  line += ",\"omp_version\":";
  append_json_number(line, std::int64_t{meta.omp_version});
  line += ",\"git_sha\":";
  append_json_string(line, meta.git_sha);
  line += ",\"build_type\":";
  append_json_string(line, meta.build_type);
  line += ",\"build_flags\":";
  append_json_string(line, meta.build_flags);
  append_fields(line, params);
  write_line(std::move(line));
}

void TraceWriter::iteration(int iter, double gamma, const StepTimers& steps,
                            const Fields& extra) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string line = begin_event("iteration");
  line += ",\"iter\":";
  append_json_number(line, std::int64_t{iter});
  line += ",\"gamma\":";
  append_json_number(line, gamma);
  append_fields(line, extra);
  line += ",\"steps\":{";
  bool first = true;
  for (const auto& name : steps.names()) {
    if (!first) line.push_back(',');
    first = false;
    append_json_string(line, name);
    line.push_back(':');
    append_json_number(line, steps.total(name));
  }
  line.push_back('}');
  write_line(std::move(line));
}

void TraceWriter::round(int iter, const std::string& matcher,
                        std::int64_t cardinality, double weight,
                        double overlap, double objective) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string line = begin_event("round");
  line += ",\"iter\":";
  append_json_number(line, std::int64_t{iter});
  line += ",\"matcher\":";
  append_json_string(line, matcher);
  line += ",\"cardinality\":";
  append_json_number(line, cardinality);
  line += ",\"weight\":";
  append_json_number(line, weight);
  line += ",\"overlap\":";
  append_json_number(line, overlap);
  line += ",\"objective\":";
  append_json_number(line, objective);
  write_line(std::move(line));
}

void TraceWriter::event(const std::string& type, const Fields& fields) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string line = begin_event(type.c_str());
  append_fields(line, fields);
  write_line(std::move(line));
}

void TraceWriter::run_end(double total_seconds, double objective,
                          int best_iteration, const Counters* counters,
                          const Fields& extra) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string line = begin_event("run_end");
  line += ",\"total_seconds\":";
  append_json_number(line, total_seconds);
  line += ",\"objective\":";
  append_json_number(line, objective);
  line += ",\"best_iteration\":";
  append_json_number(line, std::int64_t{best_iteration});
  append_fields(line, extra);
  if (counters != nullptr) {
    line += ",\"counters\":{";
    bool first = true;
    for (const auto& name : counters->names()) {
      if (!first) line.push_back(',');
      first = false;
      append_json_string(line, name);
      line.push_back(':');
      append_json_number(line, counters->total(name));
    }
    line.push_back('}');
  }
  write_line(std::move(line));
}

}  // namespace netalign::obs
