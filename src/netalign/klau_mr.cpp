#include "netalign/klau_mr.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "matching/small_mwm.hpp"
#include "netalign/row_match.hpp"
#include "netalign/solver_ckpt.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace netalign {

namespace {

/// Per-thread scratch for the row matchings of Step 1, allocated once
/// before the first iteration (paper Section IV-B: "We precompute the
/// maximum memory required for p threads to run matching problems on the
/// rows of S and preallocate this memory outside of the iteration").
struct RowMatchScratch {
  SmallMwmSolver solver;
  GreedyRowMatcher greedy;  // the ablation counterpart (row_matcher knob)
  std::vector<SmallMwmSolver::Edge> edges;
  std::vector<std::uint8_t> chosen;
};

}  // namespace

AlignResult klau_mr_align(const NetAlignProblem& p, const SquaresView& S,
                          const KlauMrOptions& options) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("klau_mr_align: inconsistent problem");
  }
  if (options.max_iterations < 1 || options.gamma <= 0.0 ||
      options.mstep < 1) {
    throw std::invalid_argument("klau_mr_align: bad options");
  }
  options.budget.validate("klau_mr_align");

  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const eid_t nnz = S.num_nonzeros();

  WallTimer total_timer;
  AlignResult result;
  obs::TraceWriter* trace = options.trace;
  obs::Counters* counters = options.counters;
  // Per-iteration step seconds for the trace, mirrored from the run-total
  // timers and cleared after each iteration event. Null when tracing is
  // off: the timers then behave exactly as before.
  StepTimers iter_steps;
  StepTimers* const iter_steps_ptr = trace != nullptr ? &iter_steps : nullptr;

  // All iteration state, preallocated up front; no allocations inside the
  // iteration (paper Section IV).
  std::vector<weight_t> U(static_cast<std::size_t>(nnz), 0.0);
  std::vector<std::uint8_t> SL(static_cast<std::size_t>(nnz), 0);
  std::vector<weight_t> d(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> wbar(static_cast<std::size_t>(m), 0.0);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(m), 0);
  std::vector<RowMatchScratch> scratch(
      static_cast<std::size_t>(max_threads()));
  {
    // Size each thread's buffers for the widest row of S.
    const eid_t max_row = S.max_row_width();
    for (auto& sc : scratch) {
      sc.edges.reserve(static_cast<std::size_t>(max_row));
      sc.chosen.resize(static_cast<std::size_t>(max_row));
      if (options.row_matcher == RowMatcher::kGreedy) {
        sc.greedy.reserve(L.num_a(), L.num_b(),
                          static_cast<std::size_t>(max_row));
      }
    }
  }

  const weight_t half_beta = p.beta / 2.0;
  const weight_t u_bound = options.bound_scale * half_beta;
  weight_t gamma = options.gamma;
  weight_t best_upper = kPosInf;
  int since_upper_improved = 0;
  BestSolutionTracker tracker;
  // Matcher scratch reused across iterations (step 3 runs one matcher per
  // iteration, serially, so a single workspace suffices).
  RoundWorkspace match_ws;

  // --- Checkpoint/resume hooks (docs/ARCHITECTURE.md "Preemption &
  // recovery"). Loop-carried state: the multipliers U, the subgradient
  // step size, the stagnation counter, and the progress skeleton. S_L, d,
  // w-bar and x are recomputed from U each iteration.
  const SolveBudget& budget = options.budget;
  int start_iter = 1;
  if (!budget.resume_path.empty()) {
    const ckpt::ResumeState rs =
        ckpt::load_for_resume(budget.resume_path, "mr", m, nnz,
                              "klau_mr_align", tracker, result, trace,
                              counters);
    io::ByteReader r(rs.checkpoint.section("mr.state").payload);
    U = r.pod_vector<weight_t>();
    gamma = r.f64();
    best_upper = r.f64();
    since_upper_improved = r.i32();
    if (U.size() != static_cast<std::size_t>(nnz)) {
      throw std::runtime_error("klau_mr_align: mr.state size mismatch");
    }
    start_iter = rs.iter + 1;
    result.resumed_from = rs.iter;
    if (!options.record_history) {
      result.objective_history.clear();
      result.upper_history.clear();
    }
  }
  result.iterations_completed = start_iter - 1;

  int last_snapshot_iter = -1;
  auto snapshot = [&](int iter) {
    if (budget.checkpoint_path.empty() || iter == last_snapshot_iter) return;
    io::Checkpoint c;
    c.solver = "mr";
    ckpt::write_meta(c, "mr", m, nnz);
    ckpt::write_progress(c, iter, tracker, result);
    io::ByteWriter w;
    w.pod_vector(U);
    w.f64(gamma);
    w.f64(best_upper);
    w.i32(since_upper_improved);
    c.add("mr.state").payload = w.take();
    ckpt::commit_checkpoint(c, budget.checkpoint_path, iter, trace, counters);
    last_snapshot_iter = iter;
  };

  for (int iter = start_iter; iter <= options.max_iterations; ++iter) {
    if (const StopReason why = budget.interruption(total_timer.seconds());
        why != StopReason::kCompleted) {
      result.stopped_reason = why;
      break;
    }
    // --- Step 1: row match ---------------------------------------------
    // For each row e of S, an exact max-weight matching over the L-edges f
    // in that row, with weights beta/2 * S + U - U^T read through the
    // transpose permutation.
    {
      ScopedStepTimer st(result.timers, "row_match", iter_steps_ptr);
      // par_rows_trans runs inside its own top-level fenced region, so
      // omp_get_thread_num() is a stable scratch index here (unlike in
      // nested contexts; see squares_implicit.hpp on cursor leases).
      S.par_rows_trans([&](vid_t e, eid_t lo, std::span<const vid_t> cols,
                           std::span<const eid_t> tks) {
        if (cols.empty()) {
          d[e] = 0.0;
          return;
        }
        RowMatchScratch& sc = scratch[omp_get_thread_num()];
        sc.edges.clear();
        for (std::size_t i = 0; i < cols.size(); ++i) {
          const eid_t k = lo + static_cast<eid_t>(i);
          const vid_t f = cols[i];
          sc.edges.push_back(SmallMwmSolver::Edge{
              L.edge_a(f), L.edge_b(f), half_beta + U[k] - U[tks[i]]});
        }
        const std::size_t row_len = sc.edges.size();
        const auto chosen_span = std::span(sc.chosen.data(), row_len);
        d[e] = options.row_matcher == RowMatcher::kExact
                   ? sc.solver.solve(sc.edges, chosen_span)
                   : sc.greedy.match(sc.edges, chosen_span);
        for (std::size_t i = 0; i < row_len; ++i) {
          SL[lo + static_cast<eid_t>(i)] = sc.chosen[i];
        }
      });
    }

    // --- Step 2: daxpy ---------------------------------------------------
    {
      ScopedStepTimer st(result.timers, "daxpy", iter_steps_ptr);
      const auto w = L.weights();
      fenced_parallel([&] {
#pragma omp for schedule(static) nowait
        for (eid_t e = 0; e < m; ++e) {
          wbar[e] = p.alpha * w[e] + d[e];
        }
      });
    }

    // --- Step 3: match ---------------------------------------------------
    BipartiteMatching matching;
    {
      ScopedStepTimer st(result.timers, "match", iter_steps_ptr);
      matching = run_matcher(L, wbar, options.matcher, counters, &match_ws);
      std::fill(x.begin(), x.end(), std::uint8_t{0});
      for (vid_t a = 0; a < L.num_a(); ++a) {
        if (matching.mate_a[a] == kInvalidVid) continue;
        x[L.find_edge(a, matching.mate_a[a])] = 1;
      }
    }

    // --- Step 4: objective and upper bound -------------------------------
    RoundOutcome outcome;
    weight_t upper = 0.0;
    {
      ScopedStepTimer st(result.timers, "objective", iter_steps_ptr);
      outcome.matching = matching;
      outcome.value = evaluate_objective(p, S, x);
      // Chunk-deterministic reduction (deterministic_chunk_sums): the
      // bound drives the gamma-halving comparison, so a 1-ulp run-to-run
      // wobble could fork the whole trajectory and break kill-resume
      // bit-identity.
      upper = deterministic_chunk_sums<1>(
          m,
          [&](std::int64_t lo, std::int64_t hi, std::array<double, 1>& acc) {
            for (eid_t e = lo; e < hi; ++e) {
              if (x[e]) acc[0] += wbar[e];
            }
          })[0];
      tracker.offer(outcome, wbar, iter);
      if (options.record_history) {
        result.objective_history.push_back(outcome.value.objective);
        result.upper_history.push_back(upper);
      }
      if (upper < best_upper - 1e-12) {
        best_upper = upper;
        since_upper_improved = 0;
      } else {
        ++since_upper_improved;
      }
    }

    // --- Step 5: update U -------------------------------------------------
    // F = U - gamma * X * triu(S_L) + gamma * tril(S_L)^T * X restricted to
    // the upper triangle (the lower triangle of U stays 0; U - U^T supplies
    // the antisymmetric part). Row scaling by x[e], column scaling by x[f],
    // and the tril^T read is a gather through the transpose permutation.
    const weight_t step_gamma = gamma;
    {
      ScopedStepTimer st(result.timers, "update_u", iter_steps_ptr);
      S.par_rows_trans([&](vid_t e, eid_t lo, std::span<const vid_t> cols,
                           std::span<const eid_t> tks) {
        for (std::size_t i = 0; i < cols.size(); ++i) {
          const vid_t f = cols[i];
          if (e >= f) continue;  // upper triangle only
          const eid_t k = lo + static_cast<eid_t>(i);
          weight_t u = U[k];
          if (x[e] && SL[k]) u -= gamma;
          if (x[f] && SL[tks[i]]) u += gamma;
          U[k] = std::clamp(u, -u_bound, u_bound);
        }
      });
      if (since_upper_improved >= options.mstep) {
        gamma /= 2.0;
        since_upper_improved = 0;
      }
    }

    if (trace != nullptr) {
      trace->round(iter, to_string(options.matcher),
                   outcome.matching.cardinality, outcome.value.weight,
                   outcome.value.overlap, outcome.value.objective);
      obs::TraceWriter::Fields fields{{"objective", outcome.value.objective},
                                      {"upper_bound", upper},
                                      {"best_upper_bound", best_upper}};
      if (tracker.has_solution()) {
        fields.emplace_back("best_objective", tracker.best().value.objective);
        fields.emplace_back("best_iteration", tracker.best_iteration());
      }
      trace->iteration(iter, step_gamma, iter_steps, fields);
      iter_steps.clear();
    }
    result.iterations_completed = iter;
    if (budget.checkpoint_due(iter)) snapshot(iter);
  }
  snapshot(result.iterations_completed);

  if (counters != nullptr) {
    // Lifetime counts from the per-thread scratch, merged once here rather
    // than per iteration (the paper's StepTimers merge pattern).
    for (const auto& sc : scratch) {
      counters->add("mr.small_mwm_calls", sc.solver.solve_calls());
      counters->add("mr.small_mwm_edges", sc.solver.edges_seen());
      counters->add("mr.row_greedy_calls", sc.greedy.calls());
      counters->add("mr.row_greedy_edges", sc.greedy.edges_seen());
    }
  }

  result.best_upper_bound = best_upper;
  finalize_best(p, S, tracker, options.matcher, options.final_exact_round,
                counters, result);

  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace netalign
