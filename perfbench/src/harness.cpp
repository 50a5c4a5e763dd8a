#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

std::vector<double> sorted(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  return s;
}

// Index tail() reads in the sorted samples.
std::size_t tail_index(std::size_t n) {
  if (n < 11) {  // no percentile has ten samples beyond it: upper quartile
    return static_cast<std::size_t>(std::ceil(0.75 * static_cast<double>(n))) - 1;
  }
  const auto p95 = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n))) - 1;
  return std::min(p95, n - 11);
}

std::string first_line_value(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

}  // namespace

double cfg_num(const netalign::obs::JsonValue& cfg, const std::string& key) {
  const auto* v = cfg.find(key);
  if (v == nullptr) throw std::runtime_error("config lacks '" + key + "'");
  return v->as_number();
}

std::string cfg_str(const netalign::obs::JsonValue& cfg, const std::string& key) {
  const auto* v = cfg.find(key);
  if (v == nullptr) throw std::runtime_error("config lacks '" + key + "'");
  return v->as_string();
}

double Samples::median() const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto s = sorted(values_);
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Samples::mean() const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::tail() const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sorted(values_)[tail_index(values_.size())];
}

std::string Samples::tail_label() const {
  const std::size_t n = values_.size();
  const std::size_t idx = tail_index(n);
  const double pct = 100.0 * static_cast<double>(idx + 1) /
                     static_cast<double>(n);
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.1f", pct);
  return buf;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::emit(const RunArgs& args) const {
  for (const auto& [k, v] : info_) std::printf("info %s %s\n", k.c_str(), v.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& f : failures_) std::printf("failure %s\n", f.c_str());
  std::fflush(stdout);

  std::string out = "{\"workload\":";
  netalign::obs::append_json_string(out, args.workload);
  out += ",\"seed\":";
  netalign::obs::append_json_number(out, static_cast<std::int64_t>(args.seed));
  out += ",\"trace\":";
  out += args.trace ? "true" : "false";
  out += ",\"attempted\":";
  netalign::obs::append_json_number(out, attempted_);
  out += ",\"failed\":";
  netalign::obs::append_json_number(out, failed());
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ',';
    netalign::obs::append_json_string(out, failures_[i]);
  }
  out += "],\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ',';
    netalign::obs::append_json_string(out, info_[i].first);
    out += ':';
    netalign::obs::append_json_string(out, info_[i].second);
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    netalign::obs::append_json_string(out, metrics_[i].name);
    out += ":{\"value\":";
    netalign::obs::append_json_number(out, metrics_[i].value);
    out += ",\"unit\":";
    netalign::obs::append_json_string(out, metrics_[i].unit);
    out += '}';
  }
  out += "}}\n";
  std::ofstream f(args.result_path, std::ios::trunc);
  f << out;
  if (!f) throw std::runtime_error("cannot write " + args.result_path);
}

int SpanLog::open(const std::string& name, int parent) {
  spans_.push_back({name, parent, clock_.seconds(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int id) {
  auto& s = spans_.at(static_cast<std::size_t>(id));
  s.end = clock_.seconds();
  return s.end - s.start;
}

double SpanLog::total(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end >= 0.0) t += s.end - s.start;
  }
  return t;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::string line = "{\"id\":";
    netalign::obs::append_json_number(line, static_cast<std::int64_t>(i));
    line += ",\"name\":";
    netalign::obs::append_json_string(line, s.name);
    line += ",\"parent\":";
    netalign::obs::append_json_number(line, static_cast<std::int64_t>(s.parent));
    line += ",\"start\":";
    netalign::obs::append_json_number(line, s.start);
    line += ",\"end\":";
    netalign::obs::append_json_number(line, s.end);
    line += "}\n";
    f << line;
  }
}

void add_fingerprint(Report& report, const std::string& git_sha) {
  const auto meta = netalign::obs::run_metadata();
  report.info("host.nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.info("host.cpu_model", first_line_value("/proc/cpuinfo", "model name"));
  report.info("host.omp_max_threads", std::to_string(meta.max_threads));
  report.info("host.build_type", meta.build_type);
  report.info("host.git_sha", git_sha);
}

std::int64_t peak_rss_of(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      std::int64_t kb = -1;
      ss >> kb;
      return kb < 0 ? -1 : kb * 1024;
    }
  }
  return -1;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
