// The CLI workloads (wiki-bp, wiki-mr, dense-bp): what a `netalign align`
// user waits for -- problem file read, squares build, solve, matching
// file write -- timed from outside around the library's public calls.
//
// Untraced run (--trace 0): repeat {align at the workload's thread count,
// the same solve at 1 thread, output checks} for the measuring window and
// report medians. Traced run (--trace 1): spans around each layer call,
// an obs::Counters through the solver options, the solvers' own StepTimers,
// standalone matcher / rounding / objective calls on the workload's L, and
// one job of the same problem through a daemon for the server layer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.hpp"
#include "harness.hpp"
#include "io/matching_io.hpp"
#include "io/problem_io.hpp"
#include "layers.hpp"
#include "matching/verify.hpp"
#include "netalign/objective.hpp"
#include "netalign/synthetic.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using netalign::AlignResult;
using netalign::NetAlignProblem;
using netalign::WallTimer;


// A random relabeling of [0, max(na, nb)) that permutes the ids A and B
// share, [0, min(na, nb)), among themselves and the rest among themselves.
// Applied to both graphs it keeps each shared vertex's A and B ids equal.
std::vector<netalign::vid_t> permutation(netalign::vid_t na, netalign::vid_t nb,
                                         netalign::Xoshiro256& rng) {
  const auto shared = static_cast<std::size_t>(std::min(na, nb));
  std::vector<netalign::vid_t> perm(static_cast<std::size_t>(std::max(na, nb)));
  std::iota(perm.begin(), perm.end(), netalign::vid_t{0});
  const auto shuffle = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = to; i > from + 1; --i) {
      std::swap(perm[i - 1], perm[from + rng.uniform_int(i - from)]);
    }
  };
  shuffle(0, shared);
  shuffle(shared, perm.size());
  return perm;
}

netalign::Graph relabel(const netalign::Graph& g,
                        const std::vector<netalign::vid_t>& perm) {
  auto edges = g.edge_list();
  for (auto& [u, v] : edges) {
    u = perm[u];
    v = perm[v];
  }
  return netalign::Graph::from_edges(g.num_vertices(), edges);
}

// The workload's instance. Its structure is fixed: the run seed only
// relabels it (generate below).
NetAlignProblem base_instance(const netalign::obs::JsonValue& inst) {
  constexpr std::uint64_t kInstanceSeed = 1;
  const std::string type = cfg_str(inst, "type");
  const auto seed = derive_seed(kInstanceSeed, 1);
  if (type == "standin") {
    const std::string dataset = cfg_str(inst, "dataset");
    for (auto spec : netalign::paper_table2_specs()) {
      if (spec.name != dataset) continue;
      spec.seed = seed;
      return netalign::make_standin_problem(spec, cfg_num(inst, "scale"));
    }
    throw std::runtime_error("unknown stand-in dataset " + dataset);
  }
  if (type == "powerlaw") {
    netalign::PowerLawInstanceOptions opt;
    opt.n = static_cast<netalign::vid_t>(cfg_num(inst, "n"));
    opt.expected_degree = cfg_num(inst, "dbar");
    opt.seed = seed;
    return netalign::make_power_law_instance(opt).problem;
  }
  throw std::runtime_error("unknown instance type " + type);
}

// The run seed draws a random relabeling of A's and B's vertices (L
// follows). Every seed so gives a different file of one isomorphic problem:
// |E_L|, nnz(S) and the work per solve stay the same, where a fresh random
// instance per seed would move nnz(S) by +-10% and the timings with it.
NetAlignProblem generate(const netalign::obs::JsonValue& inst,
                         std::uint64_t seed) {
  NetAlignProblem p = base_instance(inst);
  netalign::Xoshiro256 rng(derive_seed(seed, 2));
  const auto perm = permutation(p.A.num_vertices(), p.B.num_vertices(), rng);
  auto ledges = p.L.edge_list();
  for (auto& e : ledges) {
    e.a = perm[e.a];
    e.b = perm[e.b];
  }
  p.A = relabel(p.A, perm);
  p.B = relabel(p.B, perm);
  p.L = netalign::BipartiteGraph::from_edges(p.A.num_vertices(),
                                             p.B.num_vertices(), ledges);
  return p;
}

struct AlignRun {
  std::unique_ptr<Loaded> in;
  AlignResult r;
  double read_s = 0, squares_s = 0, solve_s = 0, total_s = 0;
};

// One `netalign align` at `threads` OpenMP threads: read, squares, solve,
// write. With `spans`, each call is a child span of one "align" span.
AlignRun align_once(const SolveSpec& spec, int threads, const std::string& nap,
                    const std::string& out, netalign::obs::Counters* counters,
                    SpanLog* spans) {
  AlignRun a;
  a.in = std::make_unique<Loaded>();
  // Set here, not just before the solve: the squares build is parallel
  // too, and the caller may have left the count at 1.
  netalign::set_threads(threads);
  const int root = spans != nullptr ? spans->open("align") : -1;
  auto timed = [&](const char* name, auto&& fn) {
    const int id = spans != nullptr ? spans->open(name, root) : -1;
    WallTimer t;
    fn();
    const double s = t.seconds();
    if (spans != nullptr) spans->close(id);
    return s;
  };
  WallTimer total;
  a.read_s = timed("io.read_problem",
                   [&] { a.in->p = netalign::read_problem_file(nap); });
  a.squares_s = timed("squares.build", [&] {
    a.in->sq = netalign::build_squares_backend(a.in->p, {});
  });
  a.solve_s = timed("solve", [&] {
    a.r = solve(spec, a.in->p, a.in->sq.view(), counters);
  });
  timed("io.write_matching",
        [&] { netalign::write_matching_file(out, a.r.matching); });
  a.total_s = total.seconds();
  if (spans != nullptr) spans->close(root);
  return a;
}

// Output checks shared by both runs; every failure is counted.
void check_outputs(Report& report, const AlignRun& a, const AlignResult& r1,
                   const std::string& out_path, double first_objective) {
  const auto& p = a.in->p;
  if (!netalign::is_valid_matching(p.L, a.r.matching)) {
    report.fail("matching is not a valid matching of L");
  }
  if (!same_matching(a.r.matching, r1.matching) ||
      a.r.value.objective != r1.value.objective) {
    report.fail("1-thread and multi-thread matchings differ");
  }
  try {
    const auto back = netalign::read_matching_file(out_path, p.L);
    if (!same_matching(back, a.r.matching)) {
      report.fail("written matching file does not read back identically");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("written matching file unreadable: ") + e.what());
  }
  const double obj =
      netalign::evaluate_objective(p, a.in->sq.view(), a.r.matching).objective;
  if (std::abs(obj - a.r.value.objective) >
      1e-9 * std::max(1.0, std::abs(obj))) {
    report.fail("reported objective differs from a re-evaluation");
  }
  if (!std::isnan(first_objective) && a.r.value.objective != first_objective) {
    report.fail("objective changed between repetitions");
  }
}

// One job of the workload's problem through netalign_server: the server
// layer's per-job costs on a large problem, and a byte check of its pairs.
void report_daemon_probe(Report& report, const RunArgs& args,
                         const SolveSpec& spec, int threads,
                         const std::string& nap,
                         const netalign::BipartiteMatching& expected) {
  DaemonOptions options;
  options.server_bin = args.server_bin;
  options.dir = args.work_dir + "/daemon";
  options.threads = threads;
  Daemon d(options);
  netalign::server::ServerClient client(d.socket());
  report.attempt();
  WallTimer latency;
  WallTimer rtt;
  const auto ack = client.call(submit_request(
      spec, "problem_path", std::filesystem::absolute(nap).string(), "t0"));
  const double submit_rtt = rtt.seconds();
  const auto* job = ack.find("job");
  if (job == nullptr) {
    report.fail("daemon refused the probe job");
    return;
  }
  const auto id = static_cast<std::int64_t>(job->as_number());
  Samples poll_rtt;
  std::string state;
  while (true) {
    rtt.reset();
    const auto st = client.call("{\"method\":\"status\",\"job\":" +
                                std::to_string(id) + "}");
    poll_rtt.add(rtt.seconds());
    const auto* s = st.find("state");
    state = s != nullptr ? s->as_string() : "";
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const JobOutcome out = fetch_outcome(client, id, state);
  const double lat = latency.seconds();
  if (out.state != "done") {
    report.fail("daemon probe job ended in state " + out.state);
    return;
  }
  if (out.pairs != pairs_json(expected)) {
    report.fail("daemon probe pairs differ from the in-process matching");
  }
  const auto stats = d.stats();
  const auto* fsyncs = stats.find("journal_fsyncs");
  report.set("server.submit_rtt_p50_s", submit_rtt, "s");
  report.set("server.poll_rtt_p50_s", poll_rtt.median(), "s");
  report.set("server.overhead_p50_s", lat - out.total_seconds, "s");
  report.set("server.solve_p50_s", out.total_seconds, "s");
  // The daemon's request count less the benchmark's own monitoring (launch
  // ping, status polls, the stats call): the job's submit and result.
  report.set("server.requests_per_job",
             stats_counter(stats, "server.requests") -
                 static_cast<double>(poll_rtt.size()) - d.own_requests(),
             "count");
  report.set("server.journal_fsyncs_per_job",
             fsyncs != nullptr ? fsyncs->as_number() : 0.0, "count");
  if (!d.stop()) report.fail("daemon did not shut down cleanly");
}

void print_accounting(const SolveSpec& spec, const AlignRun& a,
                      const SpanLog& spans, double reps, double untraced,
                      double unattributed, double overhead) {
  const double total = spans.total("align") / reps;
  std::printf("accounting: traced align, mean of %.0f\n", reps);
  const auto row = [&](const std::string& what, double s) {
    std::printf("  %-26s %9.4f s %6.1f%%\n", what.c_str(), s,
                100.0 * s / total);
  };
  row("io.read_problem", spans.total("io.read_problem") / reps);
  row("squares.build", spans.total("squares.build") / reps);
  for (const auto& step : a.r.timers.names()) {
    row(spec.solver + "." + step + " (last)", a.r.timers.total(step));
  }
  row("solve.unattributed (last)", a.solve_s - a.r.timers.grand_total());
  row("io.write_matching", spans.total("io.write_matching") / reps);
  row("align.unattributed", unattributed);
  std::printf("  %-26s %9.4f s (untraced %.4f s, tracing overhead %+.1f%%)\n",
              "align", total, untraced, 100.0 * overhead);
}

}  // namespace

int run_cli_workload(const RunArgs& args, Report& report) {
  const SolveSpec spec = parse_solve_spec(args.config);
  const int threads = static_cast<int>(cfg_num(args.config, "threads"));
  const std::string nap = args.work_dir + "/problem.nap";
  const std::string out = args.work_dir + "/matching.txt";

  WallTimer gen;
  {
    const auto p = generate(*args.config.find("instance"), args.seed);
    netalign::write_problem_file(nap, p);
    report.info("instance.el", std::to_string(p.L.num_edges()));
  }
  const auto file_bytes = std::filesystem::file_size(nap);
  report.info("instance.file_bytes", std::to_string(file_bytes));
  report.info("gen.seconds", std::to_string(gen.seconds()));
  if (!netalign::reset_peak_rss()) {
    report.info("peak_rss.note", "watermark reset unavailable");
  }

  if (!args.trace) {
    // One untimed align first: the repetitions then see warm allocator
    // arenas and OpenMP teams, as every repetition after it does.
    report.attempt();
    report.info("instance.nnz_s",
                std::to_string(align_once(spec, threads, nap, out, nullptr,
                                          nullptr).in->sq.nnz));
    Samples align, setup, solve_s, solve_t1;
    double objective = std::nan("");
    WallTimer window;
    do {
      report.attempt(2);
      AlignRun a = align_once(spec, threads, nap, out, nullptr, nullptr);
      align.add(a.total_s);
      setup.add(a.read_s + a.squares_s);
      solve_s.add(a.solve_s);
      netalign::set_threads(1);
      WallTimer t1;
      const AlignResult r1 = solve(spec, a.in->p, a.in->sq.view(), nullptr);
      solve_t1.add(t1.seconds());
      check_outputs(report, a, r1, out, objective);
      objective = a.r.value.objective;
    } while (window.seconds() < args.seconds);
    report.set("align_s", align.median(), "s");
    report.set("setup_s", setup.median(), "s");
    report.set("solve_s", solve_s.median(), "s");
    report.set("solve_t1_s", solve_t1.median(), "s");
    report.set("objective", objective, "objective");
    report.set("peak_rss_mb",
               static_cast<double>(netalign::peak_rss_bytes()) / kMiB, "MiB");
    report.set("latency_p95_s", align.tail(), "s");
    report.info("samples", std::to_string(align.size()));
    report.info("latency_p95_s.percentile", align.tail_label());
    return 0;
  }

  // Traced run. The untraced align first is the overhead reference.
  WallTimer window;
  report.attempt();
  const double untraced =
      align_once(spec, threads, nap, out, nullptr, nullptr).total_s;
  SpanLog spans;
  Samples traced;
  StepAccumulator steps;
  std::unique_ptr<netalign::obs::Counters> first_counters;
  std::string nonrepeating;
  AlignRun a;
  do {
    report.attempt();
    auto counters = std::make_unique<netalign::obs::Counters>();
    a = align_once(spec, threads, nap, out, counters.get(), &spans);
    traced.add(a.total_s);
    steps.add(spec.solver, a.r, a.solve_s);
    if (!first_counters) {
      first_counters = std::move(counters);
    } else if (nonrepeating.empty()) {
      nonrepeating = counter_diff(*first_counters, *counters);
    }
  } while (traced.size() < 2 || window.seconds() < 0.5 * args.seconds);

  const double reps = static_cast<double>(traced.size());
  const double read = spans.total("io.read_problem") / reps;
  const double align_total = spans.total("align") / reps;
  const double overhead = traced.median() / untraced - 1.0;
  report.set("io.read_problem_s", read, "s");
  report.set("io.read_problem_mb_per_s",
             static_cast<double>(file_bytes) / kMiB / read, "MiB/s");
  report.set("io.write_matching_s", spans.total("io.write_matching") / reps,
             "s");
  report.set("squares.build_s", spans.total("squares.build") / reps, "s");
  report.set("squares.nnz", static_cast<double>(a.in->sq.nnz), "count");
  report.set("squares.structure_mb",
             static_cast<double>(a.in->sq.structure_bytes()) / kMiB, "MiB");
  steps.report(report, "");
  report.set("align.total_s", align_total, "s");
  double children = 0;
  for (const char* n :
       {"io.read_problem", "squares.build", "solve", "io.write_matching"}) {
    children += spans.total(n);
  }
  const double unattributed = align_total - children / reps;
  report.set("align.unattributed_s", unattributed, "s");
  report.set("trace.overhead_share", overhead, "fraction");

  {
    // Two identical 1-thread solves. The work counters reported are theirs:
    // a sequential solve must count the same work every time, so any
    // counter that differs between the two fails the run. A counter that
    // differs between the two multi-thread solves above depends on thread
    // scheduling; it is only flagged, since a later change cannot be judged
    // by its multi-thread value.
    netalign::set_threads(1);
    netalign::obs::Counters c1, c1_again;
    report.attempt(2);
    WallTimer t1;
    const AlignResult r1 = solve(spec, a.in->p, a.in->sq.view(), &c1);
    StepAccumulator steps_t1;
    steps_t1.add(spec.solver, r1, t1.seconds());
    t1.reset();
    const AlignResult r1_again =
        solve(spec, a.in->p, a.in->sq.view(), &c1_again);
    steps_t1.add(spec.solver, r1_again, t1.seconds());
    steps_t1.report(report, "_t1");
    check_outputs(report, a, r1, out, a.r.value.objective);
    if (!same_matching(r1.matching, r1_again.matching)) {
      report.fail("identical 1-thread solves returned different matchings");
    }
    const std::string diff = counter_diff(c1, c1_again);
    if (!diff.empty()) {
      report.fail("work counters differ between identical 1-thread solves: " +
                  diff);
    }
    report_counters(report, c1);
    if (!nonrepeating.empty()) {
      std::printf("flag counters that differ between identical %d-thread "
                  "solves: %s\n", threads, nonrepeating.c_str());
      report.info("counters.nonrepeating", nonrepeating);
    }
  }
  report_matching_layer(report, *a.in, threads);
  report_daemon_probe(report, args, spec, threads, nap, a.r.matching);
  spans.write_jsonl(args.work_dir + "/spans.jsonl");
  print_accounting(spec, a, spans, reps, untraced, unattributed, overhead);
  return 0;
}

}  // namespace perfbench
