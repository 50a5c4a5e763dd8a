// perfbench: the repository's benchmark of record. Usually started by
// run.py, which builds this binary and the daemon from the checkout's
// sources and turns the result file into the one-line verdict:
//
//   perfbench --workload wiki-bp --seed 3 --seconds 20 --trace 0
//             --config perfbench/workloads.json --work-dir DIR
//             --server-bin PATH --result FILE --git-sha SHA
//
// Workloads and their parameters live in workloads.json; README.md here
// lists every metric and the layer it belongs to.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) try {
  perfbench::RunArgs args;
  std::string config_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--config") config_path = value;
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--server-bin") args.server_bin = value;
    else if (flag == "--result") args.result_path = value;
    else if (flag == "--git-sha") args.git_sha = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (args.workload.empty() || config_path.empty() || args.work_dir.empty() ||
      args.server_bin.empty() || args.result_path.empty() ||
      args.git_sha.empty()) {
    throw std::runtime_error(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--config FILE --work-dir DIR --server-bin PATH --result FILE "
        "--git-sha SHA");
  }
  std::ifstream in(config_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto config = netalign::obs::parse_json(text.str());
  const auto* workloads = config.find("workloads");
  const auto* entry =
      workloads != nullptr ? workloads->find(args.workload) : nullptr;
  if (entry == nullptr) {
    throw std::runtime_error("unknown workload " + args.workload);
  }
  args.config = *entry;
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);

  perfbench::Report report;
  perfbench::add_fingerprint(report, args.git_sha);
  const std::string kind = perfbench::cfg_str(args.config, "kind");
  if (kind == "cli") {
    perfbench::run_cli_workload(args, report);
  } else if (kind == "serve") {
    perfbench::run_serve_workload(args, report);
  } else {
    throw std::runtime_error("unknown workload kind " + kind);
  }
  report.emit(args);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: error: %s\n", e.what());
  return 1;
}
