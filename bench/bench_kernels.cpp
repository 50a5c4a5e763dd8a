// Hot-kernel microbench for the perf-regression gate (docs/PERFORMANCE.md).
//
// Times the three kernels the profile says dominate an alignment run --
// squares-matrix construction, BP's per-iteration message sweeps, and the
// approximate rounding -- at a small fixed scale, and emits them as a
// machine-readable JSON result (`--json-out`). tools/bench_runner.sh runs
// this bench for every BENCH_netalign.json entry, and the `bench_smoke`
// CTest compares a fresh run against the committed baseline via
// tools/bench_compare. Unlike the figure benches, nothing here maps to a
// paper artifact: the metrics exist to make "did this PR change a hot
// path" a measured question instead of a guess.
//
// The implicit-squares arm doubles as the memory-model demonstration
// (docs/ARCHITECTURE.md "Memory model & implicit squares"): both
// structure footprints are measured, a cap below the explicit one is
// configured (--squares-max-mb, default half of it so the demo works at
// any scale), and auto mode is required to pick the smaller backend. The
// implicit solve must then complete with a matching bit-identical to the
// explicit run's, or the bench exits nonzero and fails the gate.
// Peak-RSS watermarks (`*_peak_rss_bytes`, util/rss.hpp) are recorded per
// phase; bench_compare reports them but only gates `_seconds` metrics.
#include <exception>

#include "common.hpp"
#include "netalign/belief_prop.hpp"
#include "netalign/rounding.hpp"
#include "netalign/squares_view.hpp"
#include "util/rss.hpp"

using namespace netalign;
using namespace netalign::bench;

int main(int argc, char** argv) try {
  CliParser cli("Time the hot kernels (squares build, BP message sweeps, "
                "approximate rounding) for the perf-regression gate, plus "
                "the implicit-squares memory-mode arm.");
  auto& dataset = cli.add_string("dataset", "lcsh-wiki", "Table II dataset");
  auto& scale = cli.add_double("scale", 0.05, "stand-in scale");
  auto& repeats = cli.add_int("repeats", 3, "kernel timing repetitions");
  auto& iters = cli.add_int("iters", 10, "BP iterations");
  auto& batch = cli.add_int("batch", 8, "BP rounding batch size");
  auto& threads = cli.add_int("threads", 0, "thread count (0 = current)");
  auto& seed = cli.add_int("seed", 909, "generator seed");
  auto& squares_max_mb = cli.add_int(
      "squares-max-mb", 0,
      "auto-mode cap (MiB) for the over-cap demo; 0 = half the measured "
      "explicit estimate, so auto must pick the smaller backend");
  auto& json_out = add_json_out_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  if (repeats < 1 || iters < 1 || squares_max_mb < 0) {
    throw std::invalid_argument("bad flags");
  }

  auto spec = spec_by_name(dataset);
  spec.seed = static_cast<std::uint64_t>(seed);
  const ThreadCountGuard guard(threads > 0 ? static_cast<int>(threads)
                                           : max_threads());
  auto prep = prepare(spec, scale);
  prep.problem.alpha = 1.0;
  prep.problem.beta = 2.0;

  obs::BenchResult result("bench_kernels");
  set_problem_params(result, dataset, scale, prep);
  result.set_param("repeats", static_cast<double>(repeats));
  result.set_param("iters", static_cast<double>(iters));
  result.set_param("batch", static_cast<double>(batch));

  TextTable table({"kernel", "seconds", "note"});

  // --- Squares build: min over repeats (min is the stablest statistic for
  // a deterministic kernel; everything above it is scheduler noise). ------
  double squares_min = prep.squares_seconds;
  double squares_sum = prep.squares_seconds;
  for (int rep = 1; rep < repeats; ++rep) {
    WallTimer t;
    const SquaresMatrix rebuilt = SquaresMatrix::build(prep.problem);
    const double s = t.seconds();
    squares_min = std::min(squares_min, s);
    squares_sum += s;
    if (rebuilt.num_nonzeros() != prep.squares.num_nonzeros()) {
      throw std::logic_error("squares rebuild changed nnz");
    }
  }
  result.set_metric("squares_build_seconds", squares_min);
  result.set_metric("squares_build_mean_seconds",
                    squares_sum / static_cast<double>(repeats));
  table.add_row({"squares_build", TextTable::fixed(squares_min, 4),
                 "min of " + std::to_string(repeats)});

  // --- Implicit-squares build: the counting pass + cursor tables, without
  // materializing the CSR. Structure footprints for both backends go into
  // the result as exact byte counts (the watermarks below are process-wide
  // and include whatever else is resident). ------------------------------
  const std::uint64_t explicit_bytes = prep.squares.structure_bytes();
  double implicit_min = 0.0;
  eid_t implicit_structure = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer t;
    const auto imp = ImplicitSquares::build(prep.problem);
    const double s = t.seconds();
    if (rep == 0 || s < implicit_min) implicit_min = s;
    if (imp->num_nonzeros() != prep.squares.num_nonzeros()) {
      throw std::logic_error("implicit squares changed nnz");
    }
    implicit_structure = static_cast<eid_t>(imp->structure_bytes());
  }
  result.set_metric("squares_implicit_build_seconds", implicit_min);
  result.set_metric("squares_explicit_structure_bytes",
                    static_cast<double>(explicit_bytes));
  result.set_metric("squares_implicit_structure_bytes",
                    static_cast<double>(implicit_structure));
  table.add_row({"squares_implicit_build", TextTable::fixed(implicit_min, 4),
                 "min of " + std::to_string(repeats)});

  // --- BP: one run; the per-iteration message sweeps (everything except
  // the matcher) and the per-rounding matcher cost are reported apart so a
  // regression points at the right kernel. ------------------------------
  BeliefPropOptions opt;
  opt.max_iterations = static_cast<int>(iters);
  opt.batch_size = static_cast<int>(batch);
  opt.matcher = MatcherKind::kLocallyDominant;
  opt.gamma = 0.99;
  opt.final_exact_round = false;
  opt.record_history = false;
  reset_peak_rss();
  const AlignResult r = belief_prop_align(prep.problem, prep.squares, opt);
  result.set_metric("bp_peak_rss_bytes",
                    static_cast<double>(peak_rss_bytes()));
  StopEnv stop_env;
  stop_env.record(r);
  const double matching_s = r.timers.total("matching");
  const double message_s = r.timers.grand_total() - matching_s;
  const double rounds = 2.0 * static_cast<double>(iters);  // y and z
  result.set_metric("bp_message_seconds_per_iter",
                    message_s / static_cast<double>(iters));
  result.set_metric("bp_matching_seconds_per_round", matching_s / rounds);
  result.set_metric("bp_total_seconds", r.total_seconds);
  result.set_step_metrics("bp_step_", r.timers);
  result.set_metric("bp_objective", r.value.objective);
  table.add_row({"bp_message_per_iter",
                 TextTable::fixed(message_s / static_cast<double>(iters), 4),
                 std::to_string(iters) + " iters"});
  table.add_row({"bp_matching_per_round",
                 TextTable::fixed(matching_s / rounds, 4),
                 "batch=" + std::to_string(batch)});

  // --- Over-cap demo + implicit BP arm: auto mode under a cap below the
  // measured explicit estimate must select the smaller backend (explicit
  // whenever nnz(S) < |E_L|, as on every Table-II stand-in). The implicit
  // solve must complete, and its matching must be bit-identical to the
  // explicit run's. A mismatch is a gate failure, not a logged curiosity.
  SquaresBackendOptions auto_opts;
  auto_opts.mode = SquaresMode::kAuto;
  auto_opts.budget_bytes =
      squares_max_mb > 0
          ? static_cast<std::uint64_t>(squares_max_mb) << 20
          : std::max<std::uint64_t>(explicit_bytes / 2, 1);
  result.set_param("squares_auto_cap_bytes",
                   static_cast<double>(auto_opts.budget_bytes));
  const bool want_implicit =
      explicit_bytes > auto_opts.budget_bytes &&
      static_cast<std::uint64_t>(implicit_structure) < explicit_bytes;
  if (build_squares_backend(prep.problem, auto_opts).is_implicit() !=
      want_implicit) {
    throw std::logic_error(
        "auto mode picked the larger backend under a cap of " +
        std::to_string(auto_opts.budget_bytes) + " bytes (explicit " +
        std::to_string(explicit_bytes) + ", implicit " +
        std::to_string(implicit_structure) + ")");
  }
  auto_opts.mode = SquaresMode::kImplicit;
  const SquaresBackend backend =
      build_squares_backend(prep.problem, auto_opts);
  reset_peak_rss();
  const AlignResult ri = belief_prop_align(prep.problem, backend.view(), opt);
  result.set_metric("bp_implicit_peak_rss_bytes",
                    static_cast<double>(peak_rss_bytes()));
  stop_env.record(ri);
  stop_env.apply(result);
  if (ri.matching.mate_a != r.matching.mate_a ||
      ri.value.objective != r.value.objective) {
    throw std::logic_error(
        "implicit BP diverged from explicit (bit-identity gate)");
  }
  const double imp_matching_s = ri.timers.total("matching");
  const double imp_message_s = ri.timers.grand_total() - imp_matching_s;
  result.set_metric("bp_implicit_message_seconds_per_iter",
                    imp_message_s / static_cast<double>(iters));
  result.set_metric("bp_implicit_total_seconds", ri.total_seconds);
  const ImplicitSquares::Stats imp_stats = backend.implicit->stats();
  result.set_metric("squares_implicit_rows_enumerated",
                    static_cast<double>(imp_stats.rows_enumerated));
  result.set_metric("squares_implicit_cursor_reuse_hits",
                    static_cast<double>(imp_stats.cursor_reuse_hits));
  table.add_row(
      {"bp_implicit_message_per_iter",
       TextTable::fixed(imp_message_s / static_cast<double>(iters), 4),
       "over-cap demo, matching bit-identical"});

  // --- Approximate rounding on the similarity weights (the matcher's
  // standalone cost, independent of BP's batching). ----------------------
  double round_min = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer t;
    const RoundOutcome out = round_heuristic(
        prep.problem, prep.squares, prep.problem.L.weights(),
        MatcherKind::kLocallyDominant);
    const double s = t.seconds();
    if (rep == 0 || s < round_min) round_min = s;
    if (out.matching.cardinality == 0) {
      throw std::logic_error("rounding produced an empty matching");
    }
  }
  result.set_metric("round_approx_seconds", round_min);
  table.add_row({"round_approx", TextTable::fixed(round_min, 4),
                 "min of " + std::to_string(repeats)});

  table.print();
  write_json_result(result, json_out);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
