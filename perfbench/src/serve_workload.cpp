// The serve-mix workload: an open-loop, seeded stream of small alignment
// jobs into a netalign_server child (2 workers x 2 OpenMP threads, journal
// on, fsync on terminal records -- the daemon's defaults).
//
// Jobs are drawn with Zipf skew from more distinct problems than the
// daemon's cache holds, so the cache both hits and misses; one job in
// `mr_every` is MR (the rest BP) and one in `inline_every` carries its
// problem text inline instead of a `problem_path`. Two connections: one
// sends submits when they are due, one polls `status` and fetches results.
// Latency runs from when a submit was due to when its result arrived, so a
// stalled sender is charged to the jobs behind it.
//
// Untraced run: daemon launches (setup_s), the reference step at the fixed
// reference rate for the whole window (latency, solve, objective), then
// in-process 1-thread solves: of a seeded sample of results, whose pairs
// must match byte for byte, and of every problem in the pool (solve_t1_s).
// Traced run: a shorter reference step for the server-layer numbers, a
// bisection over the fixed offered-rate ladder for the highest sustainable
// rate, and layer-by-layer in-process solves of the sample.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "harness.hpp"
#include "io/matching_io.hpp"
#include "io/problem_io.hpp"
#include "layers.hpp"
#include "netalign/synthetic.hpp"
#include "server/client.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using netalign::WallTimer;
using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Pause between polling sweeps: bounds the status traffic the benchmark
// adds to the daemon's I/O loop, at a cost of at most this much latency.
constexpr auto kPollInterval = std::chrono::milliseconds(1);

// Harness constants, the same for every run: daemon launches behind
// setup_s, the share of a traced run's window spent at the reference rate
// (the rest goes to the ladder probes), the probe count, and the size of
// the seeded sample checked against in-process solves.
constexpr int kSetupLaunches = 15;
constexpr double kReferenceShare = 0.6;
constexpr int kProbes = 4;
constexpr int kCheckSample = 24;

// The workload's definition, all read from workloads.json.
struct ServeConfig {
  int problems, n;
  double dbar, zipf_s;
  int mr_every, inline_every, tenants;
  SolveSpec bp, mr;
  DaemonOptions daemon;  ///< server_bin and dir are filled per launch
  double reference_rate;
  std::vector<double> ladder;
  double latency_limit_s;
};

ServeConfig parse_config(const netalign::obs::JsonValue& cfg) {
  ServeConfig c;
  c.problems = static_cast<int>(cfg_num(cfg, "problems"));
  c.n = static_cast<int>(cfg_num(cfg, "n"));
  c.dbar = cfg_num(cfg, "dbar");
  c.zipf_s = cfg_num(cfg, "zipf_s");
  c.mr_every = static_cast<int>(cfg_num(cfg, "mr_every"));
  c.inline_every = static_cast<int>(cfg_num(cfg, "inline_every"));
  c.tenants = static_cast<int>(cfg_num(cfg, "tenants"));
  const auto* params = cfg.find("solver_params");
  if (params == nullptr) throw std::runtime_error("config lacks solver_params");
  c.bp.matcher = c.mr.matcher = cfg_str(*params, "matcher");
  c.bp.iters = c.mr.iters = static_cast<int>(cfg_num(*params, "iters"));
  c.bp.batch = c.mr.batch = static_cast<int>(cfg_num(*params, "batch"));
  c.bp.solver = "bp";
  c.mr.solver = "mr";
  c.daemon.workers = static_cast<int>(cfg_num(cfg, "workers"));
  c.daemon.threads = static_cast<int>(cfg_num(cfg, "threads"));
  c.daemon.queue_cap = static_cast<int>(cfg_num(cfg, "queue_cap"));
  c.daemon.tenant_queue_cap =
      static_cast<int>(cfg_num(cfg, "tenant_queue_cap"));
  c.reference_rate = cfg_num(cfg, "reference_rate");
  const auto* ladder = cfg.find("ladder");
  if (ladder == nullptr) throw std::runtime_error("config lacks ladder");
  for (const auto& v : ladder->items()) c.ladder.push_back(v.as_number());
  c.latency_limit_s = cfg_num(cfg, "latency_limit_s");
  return c;
}

struct Job {
  int problem = 0;
  bool mr = false;
  bool inline_text = false;
  int tenant = 0;
  double due = 0;        ///< seconds after the step starts
  std::string request;   ///< the submit line, built before the step
  // Filled while the step runs.
  std::int64_t id = -1;
  double sent = -1;
  double done = -1;
  JobOutcome outcome;
  [[nodiscard]] double latency() const {
    return outcome.state == "done" ? done - due : kInf;
  }
};

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// The seeded arrival schedule of one step: arrivals at `rate` with each gap
// drawn uniformly from [0.5, 1.5] times the mean, Zipf-skewed problems, one
// MR job per block of `mr_every` and one inline job per block of
// `inline_every`, tenants uniform.
std::vector<Job> make_schedule(const ServeConfig& c, std::uint64_t seed,
                               double rate, double duration) {
  std::mt19937_64 rng(seed);
  std::vector<double> cdf;
  double acc = 0;
  for (int k = 0; k < c.problems; ++k) {
    acc += 1.0 / std::pow(k + 1.0, c.zipf_s);
    cdf.push_back(acc);
  }
  std::vector<Job> jobs;
  double t = 0;
  int mr_slot = 0, inline_slot = 0;
  while (true) {
    t += (0.5 + uniform01(rng)) / rate;
    if (t >= duration) break;
    const auto i = static_cast<int>(jobs.size());
    if (i % c.mr_every == 0) mr_slot = static_cast<int>(rng() % c.mr_every);
    if (i % c.inline_every == 0) {
      inline_slot = static_cast<int>(rng() % c.inline_every);
    }
    Job j;
    j.due = t;
    j.problem = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), uniform01(rng) * acc) -
        cdf.begin());
    j.problem = std::min(j.problem, c.problems - 1);
    j.mr = i % c.mr_every == mr_slot;
    j.inline_text = i % c.inline_every == inline_slot;
    j.tenant = static_cast<int>(rng() % c.tenants);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

struct Problems {
  std::vector<std::string> paths;  ///< absolute, for problem_path submits
  std::vector<std::string> texts;  ///< the same bytes, for inline submits
};

Problems generate_problems(const ServeConfig& c, const RunArgs& args) {
  Problems out;
  for (int k = 0; k < c.problems; ++k) {
    netalign::PowerLawInstanceOptions opt;
    opt.n = c.n;
    opt.expected_degree = c.dbar;
    opt.seed = derive_seed(args.seed, 100 + static_cast<std::uint64_t>(k));
    const auto p = netalign::make_power_law_instance(opt).problem;
    const std::string path = std::filesystem::absolute(
        args.work_dir + "/p" + std::to_string(k) + ".nap").string();
    netalign::write_problem_file(path, p);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.paths.push_back(path);
    out.texts.push_back(text.str());
  }
  return out;
}

struct StepStats {
  Samples submit_rtt;
  Samples poll_rtt;
  Samples lag;          ///< how late each submit was sent
  double max_queued = 0;
  int own_requests = 0;  ///< status polls and stats calls the poller sent
};

bool terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

// Run one step's schedule against the daemon; every job ends with a
// terminal outcome ("refused" for submits the daemon did not admit,
// "lost" for jobs still unfinished after the drain limit).
StepStats run_step(const std::string& socket, std::vector<Job>& jobs,
                   double drain_limit_s) {
  StepStats st;
  std::mutex mu;
  std::vector<std::size_t> pending;
  std::atomic<bool> sender_done{false};
  const auto base = Clock::now();
  const auto since = [&] {
    return std::chrono::duration<double>(Clock::now() - base).count();
  };

  std::thread sender([&] {
    try {
      netalign::server::ServerClient client(socket);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        Job& j = jobs[i];
        std::this_thread::sleep_until(
            base + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(j.due)));
        j.sent = since();
        const auto ack = client.call(j.request);
        st.submit_rtt.add(since() - j.sent);
        st.lag.add(j.sent - j.due);
        const auto* id = ack.find("job");
        if (id == nullptr) {
          j.outcome.state = "refused";
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        j.id = static_cast<std::int64_t>(id->as_number());
        pending.push_back(i);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: sender: %s\n", e.what());
    }
    sender_done = true;
  });

  try {
    netalign::server::ServerClient client(socket);
    const double end = jobs.empty() ? 0.0 : jobs.back().due;
    double next_stats = 0;
    while (true) {
      std::vector<std::size_t> snapshot;
      {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = pending;
      }
      const bool sender_finished = sender_done.load();
      if (snapshot.empty() && sender_finished) break;
      if (since() > end + drain_limit_s) break;
      if (since() >= next_stats) {
        const auto stats = client.call("{\"method\":\"stats\"}");
        ++st.own_requests;
        const auto* q = stats.find("queued");
        if (q != nullptr) st.max_queued = std::max(st.max_queued, q->as_number());
        next_stats = since() + 0.1;
      }
      if (snapshot.empty()) {
        std::this_thread::sleep_for(kPollInterval);
        continue;
      }
      std::vector<std::size_t> finished;
      for (const std::size_t i : snapshot) {
        Job& j = jobs[i];
        const double t0 = since();
        const auto status = client.call("{\"method\":\"status\",\"job\":" +
                                        std::to_string(j.id) + "}");
        st.poll_rtt.add(since() - t0);
        ++st.own_requests;
        const auto* s = status.find("state");
        const std::string state = s != nullptr ? s->as_string() : "failed";
        if (!terminal(state)) continue;
        j.outcome = fetch_outcome(client, j.id, state);
        j.done = since();
        finished.push_back(i);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        std::erase_if(pending, [&](std::size_t i) {
          return std::find(finished.begin(), finished.end(), i) !=
                 finished.end();
        });
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: poller: %s\n", e.what());
  }
  sender.join();
  for (auto& j : jobs) {
    if (j.outcome.state.empty()) j.outcome.state = "lost";
  }
  return st;
}

struct StepVerdict {
  bool pass = false;
  double p95 = 0;
  double backlog_growth = 0;
};

// A step sustains its rate when its tail latency meets the limit and its
// backlog (due but unfinished jobs) does not grow from mid-step to the end.
StepVerdict judge(const std::vector<Job>& jobs, double duration, double limit) {
  Samples lat;
  for (const auto& j : jobs) lat.add(j.latency());
  const auto backlog = [&](double t) {
    int b = 0;
    for (const auto& j : jobs) {
      const bool finished = j.outcome.state == "done" && j.done <= t;
      if (j.due <= t && !finished) ++b;
    }
    return b;
  };
  int second_half = 0;
  for (const auto& j : jobs) second_half += j.due >= duration / 2 ? 1 : 0;
  StepVerdict v;
  v.p95 = jobs.empty() ? 0.0 : lat.tail();
  v.backlog_growth = backlog(duration) - backlog(duration / 2);
  v.pass = !jobs.empty() && v.p95 <= limit &&
           v.backlog_growth <= 1.0 + 0.1 * second_half;
  return v;
}

void build_requests(const ServeConfig& c, const Problems& probs,
                    std::vector<Job>& jobs) {
  for (auto& j : jobs) {
    const SolveSpec& spec = j.mr ? c.mr : c.bp;
    const std::string tenant = "tenant" + std::to_string(j.tenant);
    j.request = j.inline_text
                    ? submit_request(spec, "problem", probs.texts[j.problem], tenant)
                    : submit_request(spec, "problem_path",
                                     probs.paths[j.problem], tenant);
  }
}

// Seeded sample of finished reference-step jobs for the in-process check:
// k jobs in the stream's proportions (one MR per `mr_every`), the first BP
// pick an inline one when the step has any.
std::vector<const Job*> check_sample(const std::vector<Job>& jobs, int k,
                                     int mr_every, std::uint64_t seed) {
  std::vector<const Job*> bp, mr;
  for (const auto& j : jobs) {
    if (j.outcome.state == "done") (j.mr ? mr : bp).push_back(&j);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(bp.begin(), bp.end(), rng);
  std::shuffle(mr.begin(), mr.end(), rng);
  std::stable_partition(bp.begin(), bp.end(),
                        [](const Job* j) { return j->inline_text; });
  const auto n_mr = static_cast<std::size_t>(k / mr_every);
  std::vector<const Job*> pick(mr.begin(),
                               mr.begin() + std::min(n_mr, mr.size()));
  for (const Job* j : bp) {
    if (static_cast<int>(pick.size()) >= k) break;
    pick.push_back(j);
  }
  return pick;
}

}  // namespace

int run_serve_workload(const RunArgs& args, Report& report) {
  const ServeConfig c = parse_config(args.config);
  const Problems probs = generate_problems(c, args);
  std::int64_t problem_bytes = 0;
  for (const auto& t : probs.texts) problem_bytes += static_cast<std::int64_t>(t.size());
  report.info("instance.problems", std::to_string(c.problems));
  report.info("instance.file_bytes", std::to_string(problem_bytes));

  const auto ladder_index = std::find(c.ladder.begin(), c.ladder.end(),
                                      c.reference_rate) - c.ladder.begin();
  if (ladder_index == static_cast<std::ptrdiff_t>(c.ladder.size())) {
    throw std::runtime_error("reference_rate is not a ladder step");
  }

  DaemonOptions launch = c.daemon;
  launch.server_bin = args.server_bin;
  launch.dir = args.work_dir + "/launch";
  Samples setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupLaunches); ++i) {
    Daemon d(launch);
    setup.add(d.ready_seconds());
    if (!d.stop()) report.fail("daemon did not shut down cleanly");
  }
  launch.dir = args.work_dir + "/daemon";
  Daemon daemon(launch);
  setup.add(daemon.ready_seconds());

  // Reference step.
  const double ref_seconds =
      args.trace ? args.seconds * kReferenceShare : args.seconds;
  std::vector<Job> ref =
      make_schedule(c, derive_seed(args.seed, 1), c.reference_rate, ref_seconds);
  build_requests(c, probs, ref);
  const StepStats ref_stats = run_step(daemon.socket(), ref, 30.0);
  const auto stats = daemon.stats();
  const StepVerdict ref_verdict = judge(ref, ref_seconds, c.latency_limit_s);

  Samples latency, solve_all, solve_bp, overhead;
  double objective_sum = 0;
  int done = 0;
  for (const auto& j : ref) {
    report.attempt();
    latency.add(j.latency());
    if (j.outcome.state != "done") {
      report.fail("reference-step job " + std::to_string(j.id) + " ended " +
                  j.outcome.state);
      continue;
    }
    ++done;
    solve_all.add(j.outcome.total_seconds);
    if (!j.mr) solve_bp.add(j.outcome.total_seconds);
    overhead.add(j.latency() - j.outcome.total_seconds);
    objective_sum += j.outcome.objective;
  }
  report.info("reference.jobs", std::to_string(ref.size()));
  report.info("reference.p95_within_limit", ref_verdict.pass ? "true" : "false");
  report.info("latency_p95_s.percentile", latency.tail_label());

  // Ladder: bisection over the fixed steps above (or, when the reference
  // step itself is not sustained, below) the reference rate.
  std::ptrdiff_t best = ref_verdict.pass ? ladder_index : -1;
  std::ptrdiff_t lowest_fail =
      ref_verdict.pass ? static_cast<std::ptrdiff_t>(c.ladder.size())
                       : ladder_index;
  double rejected = 0;
  if (args.trace) {
    const double probe_seconds =
        args.seconds * (1.0 - kReferenceShare) / kProbes;
    for (int probe = 0; probe < kProbes && best + 1 < lowest_fail; ++probe) {
      const std::ptrdiff_t at = best + (lowest_fail - best) / 2;
      const double rate = c.ladder[static_cast<std::size_t>(at)];
      std::vector<Job> step = make_schedule(
          c, derive_seed(args.seed, 10 + static_cast<std::uint64_t>(probe)),
          rate, probe_seconds);
      build_requests(c, probs, step);
      run_step(daemon.socket(), step, 30.0);
      const StepVerdict v = judge(step, probe_seconds, c.latency_limit_s);
      for (const auto& j : step) {
        if (j.outcome.state == "failed" || j.outcome.state == "lost") {
          report.fail("ladder job ended " + j.outcome.state);
        }
        rejected += j.outcome.state == "refused" ? 1 : 0;
      }
      std::printf("ladder %6.1f jobs/s: %zu jobs, p95 %.4f s, backlog %+.0f: %s\n",
                  rate, step.size(), v.p95, v.backlog_growth,
                  v.pass ? "sustained" : "not sustained");
      (v.pass ? best : lowest_fail) = at;
    }
  }
  const double peak_rss =
      static_cast<double>(peak_rss_of(daemon.pid())) / kMiB;
  if (!daemon.stop()) report.fail("daemon did not shut down cleanly");

  // In-process check of a seeded sample: same parameters, same pairs.
  const auto sample =
      check_sample(ref, kCheckSample, c.mr_every, derive_seed(args.seed, 2));
  StepAccumulator steps, steps_t1;
  // Work counters of the 1-thread solves, counted twice: a counter that
  // differs between the two passes does not repeat, which fails the run.
  netalign::obs::Counters counters, counters_again;
  Samples read_s, squares_s, write_s, nnz, structure;
  for (const Job* j : sample) {
    report.attempt();
    const SolveSpec& spec = j->mr ? c.mr : c.bp;
    auto in = std::make_unique<Loaded>();
    netalign::set_threads(c.daemon.threads);  // as a daemon worker builds
    WallTimer t;
    in->p = netalign::read_problem_file(probs.paths[j->problem]);
    read_s.add(t.seconds());
    t.reset();
    in->sq = netalign::build_squares_backend(in->p, {});
    squares_s.add(t.seconds());
    nnz.add(static_cast<double>(in->sq.nnz));
    structure.add(static_cast<double>(in->sq.structure_bytes()) / kMiB);
    netalign::set_threads(1);
    t.reset();
    const auto r1 =
        solve(spec, in->p, in->sq.view(), args.trace ? &counters : nullptr);
    steps_t1.add(spec.solver, r1, t.seconds());
    if (pairs_json(r1.matching) != j->outcome.pairs ||
        r1.value.objective != j->outcome.objective) {
      report.fail("job " + std::to_string(j->id) +
                  " differs from the in-process solve");
    }
    if (args.trace) {
      solve(spec, in->p, in->sq.view(), &counters_again);
      netalign::set_threads(c.daemon.threads);
      t.reset();
      const auto r = solve(spec, in->p, in->sq.view(), nullptr);
      steps.add(spec.solver, r, t.seconds());
      t.reset();
      netalign::write_matching_file(args.work_dir + "/check.match", r.matching);
      write_s.add(t.seconds());
      if (j == sample.front()) {
        report_matching_layer(report, *in, c.daemon.threads);
      }
    }
  }
  report.info("check.sample", std::to_string(sample.size()));
  if (args.trace) {
    const std::string diff = counter_diff(counters, counters_again);
    if (!diff.empty()) {
      report.fail("work counters differ between identical 1-thread solves: " +
                  diff);
    }
  }

  // solve_t1_s: a 1-thread BP solve of every problem in the pool, once
  // each, so the figure does not hinge on which problems the skewed draw
  // favoured.
  Samples solve_t1;
  if (!args.trace) {
    netalign::set_threads(1);
    for (const auto& path : probs.paths) {
      report.attempt();
      auto in = std::make_unique<Loaded>();
      in->p = netalign::read_problem_file(path);
      in->sq = netalign::build_squares_backend(in->p, {});
      WallTimer t;
      solve(c.bp, in->p, in->sq.view(), nullptr);
      solve_t1.add(t.seconds());
    }
  }

  if (!args.trace) {
    report.set("align_s", latency.median(), "s");
    report.set("setup_s", setup.median(), "s");
    // Both solve times are BP medians (three jobs in four are BP), so a
    // seed's share of slow MR jobs does not move them; MR cost shows in
    // the latency tail.
    report.set("solve_s", solve_bp.median(), "s");
    report.set("solve_t1_s", solve_t1.median(), "s");
    report.set("objective", done > 0 ? objective_sum / done : 0.0, "objective");
    report.set("peak_rss_mb", peak_rss, "MiB");
    report.set("latency_p95_s", latency.tail(), "s");
    report.info("samples", std::to_string(latency.size()));
    return 0;
  }

  report.set("sustained_rate_jobs_s",
             best >= 0 ? c.ladder[static_cast<std::size_t>(best)] : 0.0,
             "jobs/s");
  report.set("ladder.jobs_refused", rejected, "count");

  const double jobs = static_cast<double>(std::max<std::size_t>(ref.size(), 1));
  const double per_check =
      static_cast<double>(std::max<std::size_t>(sample.size(), 1));
  const double hits = stats_counter(stats, "server.cache_hit");
  const double misses = stats_counter(stats, "server.cache_miss");
  const auto* fsyncs = stats.find("journal_fsyncs");
  report.set("io.read_problem_s", read_s.mean(), "s");
  report.set("io.read_problem_mb_per_s",
             static_cast<double>(problem_bytes) / c.problems / kMiB /
                 read_s.mean(),
             "MiB/s");
  report.set("io.write_matching_s", write_s.mean(), "s");
  report.set("squares.build_s", squares_s.mean(), "s");
  report.set("squares.nnz", nnz.mean(), "count");
  report.set("squares.structure_mb", structure.mean(), "MiB");
  steps.report(report, "");
  steps_t1.report(report, "_t1");
  report_counters(report, counters, per_check);
  report.set("server.submit_rtt_p50_s", ref_stats.submit_rtt.median(), "s");
  report.set("server.poll_rtt_p50_s", ref_stats.poll_rtt.median(), "s");
  report.set("server.overhead_p50_s", overhead.median(), "s");
  report.set("server.overhead_p95_s", overhead.tail(), "s");
  report.set("server.solve_p50_s", solve_all.median(), "s");
  report.set("server.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  report.set("server.journal_fsyncs_per_job",
             (fsyncs != nullptr ? fsyncs->as_number() : 0.0) / jobs, "count");
  // The daemon's request count less the benchmark's own monitoring (launch
  // ping, status polls, stats calls): the submits and results per job.
  report.set("server.requests_per_job",
             (stats_counter(stats, "server.requests") - ref_stats.own_requests -
              daemon.own_requests()) / jobs,
             "count");
  report.set("server.queue_depth_max", ref_stats.max_queued, "count");
  report.set("server.jobs_rejected",
             stats_counter(stats, "server.jobs_rejected") +
                 stats_counter(stats, "server.jobs_quota_exceeded"),
             "count");
  report.set("server.jobs_failed", stats_counter(stats, "server.jobs_failed"),
             "count");
  report.set("gen.lag_p95_s", ref_stats.lag.tail(), "s");

  std::ofstream log(args.work_dir + "/jobs.jsonl", std::ios::trunc);
  for (const auto& j : ref) {
    log << "{\"job\":" << j.id << ",\"due\":" << j.due << ",\"sent\":" << j.sent
        << ",\"done\":" << j.done << ",\"state\":\"" << j.outcome.state
        << "\",\"solve\":" << j.outcome.total_seconds << ",\"mr\":" << j.mr
        << ",\"inline\":" << j.inline_text << "}\n";
  }
  return 0;
}

}  // namespace perfbench
