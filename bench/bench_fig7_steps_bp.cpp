// Figure 7 of the paper: strong scaling of the individual steps of
// BP(batch=20) on lcsh-wiki. The paper reports, at 40 threads: othermax
// ~15% of runtime, matching ~58%, damping ~12%, with damping the limiting
// step (the batch of 20 stored iterates stresses memory bandwidth).
#include <exception>

#include "common.hpp"
#include "netalign/belief_prop.hpp"

using namespace netalign;
using namespace netalign::bench;

int main(int argc, char** argv) try {
  CliParser cli(
      "Reproduce Figure 7: per-step scaling of BP(batch=20) on lcsh-wiki.");
  auto& scale = cli.add_double("scale", 0.05, "lcsh-wiki stand-in scale");
  auto& iters = cli.add_int("iters", 20, "iterations (paper: 400)");
  auto& batch = cli.add_int("batch", 20, "rounding batch size");
  auto& max_threads_flag =
      cli.add_int("max-threads", max_threads(), "largest thread count");
  auto& seed = cli.add_int("seed", 707, "generator seed");
  const ObsFlags obs_flags = add_obs_flags(cli);
  auto& json_out = add_json_out_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  auto spec = spec_by_name("lcsh-wiki");
  spec.seed = static_cast<std::uint64_t>(seed);
  auto prep = prepare(spec, scale);
  prep.problem.alpha = 1.0;
  prep.problem.beta = 2.0;

  obs::BenchResult json_result("bench_fig7_steps_bp");
  set_problem_params(json_result, "lcsh-wiki", scale, prep);
  json_result.set_param("iters", static_cast<double>(iters));
  json_result.set_param("batch", static_cast<double>(batch));

  std::printf("== Figure 7: per-step timing of BP(batch=%lld) (steps of "
              "Listing 2) ==\n",
              static_cast<long long>(batch));
  const auto trace = open_trace(obs_flags.trace_out);
  obs::Counters sweep_counters;
  StopEnv stop_env;
  TextTable table({"threads", "step", "seconds", "fraction"});
  for (const int t : thread_sweep(static_cast<int>(max_threads_flag))) {
    ThreadCountGuard guard(t);
    BeliefPropOptions opt;
    opt.max_iterations = static_cast<int>(iters);
    opt.matcher = MatcherKind::kLocallyDominant;
    opt.gamma = 0.99;
    opt.batch_size = static_cast<int>(batch);
    opt.final_exact_round = false;
    opt.record_history = false;
    obs::Counters counters;
    opt.trace = trace.get();
    opt.counters = obs_flags.counters ? &counters : nullptr;
    if (trace) {
      // The thread count itself is in the metadata (ThreadCountGuard has
      // already applied `t`, so run_start's "threads" field reports it).
      trace->run_start("belief_prop", {{"dataset", "lcsh-wiki"},
                                       {"scale", static_cast<double>(scale)},
                                       {"iters", iters},
                                       {"batch", batch},
                                       {"matcher", "approx"}});
    }
    const auto r = belief_prop_align(prep.problem, prep.squares, opt);
    if (trace) {
      trace->run_end(r.total_seconds, r.value.objective, r.best_iteration,
                     obs_flags.counters ? &counters : nullptr);
    }
    sweep_counters.merge(counters);
    stop_env.record(r);
    // append, not "t" + to_string(t): GCC 12 reports a false -Wrestrict on
    // operator+(const char*, string&&).
    const std::string cell = std::string("t").append(std::to_string(t)) + "_";
    json_result.set_metric(cell + "total_seconds", r.total_seconds);
    json_result.set_step_metrics(cell + "step_", r.timers);
    json_result.set_metric(cell + "objective", r.value.objective);
    for (const auto& step : r.timers.names()) {
      table.add_row({TextTable::num(t), step,
                     TextTable::fixed(r.timers.total(step), 3),
                     TextTable::pct(r.timers.fraction(step))});
    }
  }
  table.print();
  if (obs_flags.counters) print_counters(sweep_counters);
  stop_env.apply(json_result);
  write_json_result(json_result, json_out);
  std::printf("\nExpected shape (paper Fig. 7): matching dominates (~58%% at\n"
              "scale), othermax ~15%%, damping ~12%% and limiting at high\n"
              "thread counts.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
