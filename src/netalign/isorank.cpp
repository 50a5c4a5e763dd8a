#include "netalign/isorank.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "netalign/solver_ckpt.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace netalign {

AlignResult isorank_align(const NetAlignProblem& p, const SquaresView& S,
                          const IsoRankOptions& options) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("isorank_align: inconsistent problem");
  }
  if (options.max_iterations < 1 || options.gamma < 0.0 ||
      options.gamma >= 1.0) {
    throw std::invalid_argument("isorank_align: bad options");
  }
  options.budget.validate("isorank_align");

  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const eid_t nnz = S.num_nonzeros();
  WallTimer total_timer;
  AlignResult result;
  obs::TraceWriter* trace = options.trace;
  obs::Counters* counters = options.counters;

  // Normalized prior from L's weights (uniform when all weights are 0).
  std::vector<weight_t> prior(static_cast<std::size_t>(m), 0.0);
  {
    weight_t total = 0.0;
    for (eid_t e = 0; e < m; ++e) total += std::max(0.0, L.edge_weight(e));
    if (total > 0.0) {
      for (eid_t e = 0; e < m; ++e) {
        prior[e] = std::max(0.0, L.edge_weight(e)) / total;
      }
    } else {
      std::fill(prior.begin(), prior.end(),
                1.0 / static_cast<weight_t>(std::max<eid_t>(m, 1)));
    }
  }

  // Out-degree normalization per L-edge: each square neighbor (j, j')
  // distributes its mass over deg_A(j) * deg_B(j') squares.
  std::vector<weight_t> inv_deg(static_cast<std::size_t>(m), 0.0);
  fenced_parallel([&] {
#pragma omp for schedule(static) nowait
    for (eid_t e = 0; e < m; ++e) {
      const auto da = static_cast<weight_t>(p.A.degree(L.edge_a(e)));
      const auto db = static_cast<weight_t>(p.B.degree(L.edge_b(e)));
      inv_deg[e] = (da > 0.0 && db > 0.0) ? 1.0 / (da * db) : 0.0;
    }
  });

  std::vector<weight_t> x(prior);
  std::vector<weight_t> scaled(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> next(static_cast<std::size_t>(m), 0.0);
  BestSolutionTracker tracker;

  // --- Checkpoint/resume hooks. The loop-carried state is the iterate x
  // and the last sweep's residual (prior and inv_deg are deterministic
  // functions of the problem); the tracker stays empty until the single
  // final rounding, so a resumed run re-rounds exactly the restored
  // iterate -- at once when that iterate had already converged.
  weight_t delta = std::numeric_limits<weight_t>::infinity();
  const SolveBudget& budget = options.budget;
  int start_iter = 1;
  if (!budget.resume_path.empty()) {
    const ckpt::ResumeState rs =
        ckpt::load_for_resume(budget.resume_path, "isorank", m, nnz,
                              "isorank_align", tracker, result, trace,
                              counters);
    io::ByteReader r(rs.checkpoint.section("isorank.state").payload);
    x = r.pod_vector<weight_t>();
    if (x.size() != static_cast<std::size_t>(m)) {
      throw std::runtime_error("isorank_align: isorank.state size mismatch");
    }
    // Checkpoints older than the stored residual end after x; their
    // history (recorded by default) carries it instead.
    if (!r.exhausted()) {
      delta = r.f64();
    } else if (!result.objective_history.empty()) {
      delta = result.objective_history.back();
    }
    start_iter = rs.iter + 1;
    result.resumed_from = rs.iter;
    if (!options.record_history) result.objective_history.clear();
  }
  result.iterations_completed = start_iter - 1;

  int last_snapshot_iter = -1;
  auto snapshot = [&](int iter) {
    if (budget.checkpoint_path.empty() || iter == last_snapshot_iter) return;
    io::Checkpoint c;
    c.solver = "isorank";
    ckpt::write_meta(c, "isorank", m, nnz);
    ckpt::write_progress(c, iter, tracker, result);
    io::ByteWriter w;
    w.pod_vector(x);
    w.f64(delta);
    c.add("isorank.state").payload = w.take();
    ckpt::commit_checkpoint(c, budget.checkpoint_path, iter, trace, counters);
    last_snapshot_iter = iter;
  };

  for (int iter = start_iter;
       iter <= options.max_iterations && !(delta < options.tolerance); ++iter) {
    if (const StopReason why = budget.interruption(total_timer.seconds());
        why != StopReason::kCompleted) {
      result.stopped_reason = why;
      break;
    }
    {
      ScopedStepTimer st(result.timers, "propagate");
      fenced_parallel([&] {
#pragma omp for schedule(static) nowait
        for (eid_t e = 0; e < m; ++e) scaled[e] = x[e] * inv_deg[e];
      });
      // Row sweep over either backend; the k-ascending per-row sum keeps
      // the iterate bit-identical across explicit and implicit modes.
      S.par_rows([&](vid_t e, eid_t, std::span<const vid_t> cols) {
        weight_t sum = 0.0;
        for (const vid_t f : cols) sum += scaled[f];
        next[e] = options.gamma * sum + (1.0 - options.gamma) * prior[e];
      });
    }
    {
      ScopedStepTimer st(result.timers, "convergence");
      // Chunk-deterministic residual (deterministic_chunk_sums): the
      // tolerance test below forks on delta, so the sum order must not
      // vary run to run or kill-resume bit-identity breaks.
      delta = deterministic_chunk_sums<1>(
          m,
          [&](std::int64_t lo, std::int64_t hi, std::array<double, 1>& acc) {
            for (eid_t e = lo; e < hi; ++e) acc[0] += std::abs(next[e] - x[e]);
          })[0];
    }
    std::swap(x, next);
    if (options.record_history) {
      result.objective_history.push_back(delta);
    }
    if (trace != nullptr) {
      trace->iteration(iter, options.gamma, StepTimers{},
                       {{"residual", delta}});
    }
    result.iterations_completed = iter;
    if (budget.checkpoint_due(iter)) snapshot(iter);
  }
  snapshot(result.iterations_completed);

  // One rounding at the fixed point (unlike MR/BP there is no per-iterate
  // quality oscillation to track: the iteration is a contraction). The
  // tracker holds this single offer so the tail is the uniform
  // finalize_best used by every solver. A run stopped before any sweep
  // completed still rounds the restored (or initial) iterate.
  {
    ScopedStepTimer st(result.timers, "matching");
    const RoundOutcome outcome =
        round_heuristic(p, S, x, options.matcher, counters);
    tracker.offer(outcome, x, result.iterations_completed);
    if (trace != nullptr) {
      trace->round(result.iterations_completed, to_string(options.matcher),
                   outcome.matching.cardinality, outcome.value.weight,
                   outcome.value.overlap, outcome.value.objective);
    }
  }
  finalize_best(p, S, tracker, options.matcher, /*final_exact_round=*/false,
                counters, result);
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace netalign
