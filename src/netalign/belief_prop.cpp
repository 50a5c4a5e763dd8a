#include "netalign/belief_prop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netalign/othermax.hpp"
#include "netalign/solver_ckpt.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace netalign {

namespace {

/// One stored message vector waiting for (possibly batched) rounding.
struct PendingRound {
  std::vector<weight_t> g;
  int iter = 0;
};

}  // namespace

AlignResult belief_prop_align(const NetAlignProblem& p, const SquaresView& S,
                              const BeliefPropOptions& options) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("belief_prop_align: inconsistent problem");
  }
  if (options.max_iterations < 1 || options.batch_size < 1 ||
      options.gamma <= 0.0 || options.gamma > 1.0) {
    throw std::invalid_argument("belief_prop_align: bad options");
  }
  options.budget.validate("belief_prop_align");

  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const eid_t nnz = S.num_nonzeros();
  const auto w = L.weights();

  WallTimer total_timer;
  AlignResult result;
  BestSolutionTracker tracker;
  obs::TraceWriter* trace = options.trace;
  obs::Counters* counters = options.counters;
  // Per-iteration step seconds for the trace, mirrored from the run-total
  // timers via ScopedStepTimer's `also` target and cleared at each
  // iteration event. Null when tracing is off: the timers then behave
  // exactly as before.
  StepTimers iter_steps;
  StepTimers* const iter_steps_ptr = trace != nullptr ? &iter_steps : nullptr;

  // Message state, preallocated once (paper Section IV). *_prev holds the
  // damped iterate from the previous iteration.
  std::vector<weight_t> y(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> z(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> y_prev(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> z_prev(static_cast<std::size_t>(m), 0.0);
  std::vector<weight_t> sk(static_cast<std::size_t>(nnz), 0.0);
  std::vector<weight_t> sk_prev(static_cast<std::size_t>(nnz), 0.0);
  std::vector<weight_t> F(static_cast<std::size_t>(nnz), 0.0);
  std::vector<weight_t> d(static_cast<std::size_t>(m), 0.0);

  // Rounding batch: `batch_size` message vectors are stored and rounded
  // together as OpenMP tasks (two vectors, y and z, accrue per iteration).
  std::vector<PendingRound> batch(static_cast<std::size_t>(options.batch_size));
  for (auto& pr : batch) pr.g.resize(static_cast<std::size_t>(m));
  std::size_t batch_fill = 0;
  std::vector<RoundOutcome> batch_out(batch.size());
  // One rounding workspace per thread, reused across every flush: batched
  // rounding otherwise reallocates the matcher's per-vertex state and the
  // objective indicator on each of the 2 * max_iterations roundings.
  std::vector<RoundWorkspace> round_ws(
      static_cast<std::size_t>(max_threads()));

  auto flush_batch = [&]() {
    if (batch_fill == 0) return;
    ScopedStepTimer st(result.timers, "matching", iter_steps_ptr);
    // The paper runs the batched matchings as OpenMP tasks with nested
    // parallelism inside each task. A dynamic-1 worksharing loop has the
    // same scheduling semantics for independent items -- each thread grabs
    // the next unstarted rounding -- without the task queue, whose libgomp
    // internals are opaque to TSan (see fenced_parallel in parallel.hpp).
    fenced_parallel([&] {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      RoundWorkspace* const ws =
          tid < round_ws.size() ? &round_ws[tid] : nullptr;
#pragma omp for schedule(dynamic, 1) nowait
      for (std::size_t i = 0; i < batch_fill; ++i) {
        batch_out[i] =
            round_heuristic(p, S, batch[i].g, options.matcher, counters, ws);
      }
    });
    for (std::size_t i = 0; i < batch_fill; ++i) {
      tracker.offer(batch_out[i], batch[i].g, batch[i].iter);
      if (options.record_history) {
        result.objective_history.push_back(batch_out[i].value.objective);
      }
      if (trace != nullptr) {
        trace->round(batch[i].iter, to_string(options.matcher),
                     batch_out[i].matching.cardinality,
                     batch_out[i].value.weight, batch_out[i].value.overlap,
                     batch_out[i].value.objective);
      }
    }
    if (counters != nullptr) {
      counters->add("bp.roundings", static_cast<std::int64_t>(batch_fill));
    }
    batch_fill = 0;
  };
  auto enqueue_round = [&](std::span<const weight_t> g, int iter) {
    std::copy(g.begin(), g.end(), batch[batch_fill].g.begin());
    batch[batch_fill].iter = iter;
    if (++batch_fill == batch.size()) flush_batch();
  };

  const auto nrows = static_cast<vid_t>(m);

  // --- Checkpoint/resume hooks (docs/ARCHITECTURE.md "Preemption &
  // recovery"). Only loop-carried state needs saving: y_prev/z_prev/
  // sk_prev plus the progress skeleton. y/z/F/d are recomputed from those
  // each iteration, and the damping factor is a pure function of the
  // iteration number.
  const SolveBudget& budget = options.budget;
  int start_iter = 1;
  if (!budget.resume_path.empty()) {
    const ckpt::ResumeState rs =
        ckpt::load_for_resume(budget.resume_path, "bp", m, nnz,
                              "belief_prop_align", tracker, result, trace,
                              counters);
    io::ByteReader r(rs.checkpoint.section("bp.state").payload);
    y_prev = r.pod_vector<weight_t>();
    z_prev = r.pod_vector<weight_t>();
    sk_prev = r.pod_vector<weight_t>();
    if (y_prev.size() != static_cast<std::size_t>(m) ||
        z_prev.size() != static_cast<std::size_t>(m) ||
        sk_prev.size() != static_cast<std::size_t>(nnz)) {
      throw std::runtime_error("belief_prop_align: bp.state size mismatch");
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
    // Fold pending roundings in first. Flush timing changes no computed
    // value (each rounding is a pure function of its stored g vector and
    // history entries append in enqueue order either way), so a
    // checkpoint-boundary flush keeps resume bit-identical.
    flush_batch();
    io::Checkpoint c;
    c.solver = "bp";
    ckpt::write_meta(c, "bp", m, nnz);
    ckpt::write_progress(c, iter, tracker, result);
    io::ByteWriter state;
    state.pod_vector(y_prev);
    state.pod_vector(z_prev);
    state.pod_vector(sk_prev);
    c.add("bp.state").payload = state.take();
    ckpt::commit_checkpoint(c, budget.checkpoint_path, iter, trace, counters);
    last_snapshot_iter = iter;
  };

  for (int iter = start_iter; iter <= options.max_iterations; ++iter) {
    if (const StopReason why = budget.interruption(total_timer.seconds());
        why != StopReason::kCompleted) {
      result.stopped_reason = why;
      break;
    }
    // --- Steps 1+2 fused: F = bound_{0,beta}[beta S + S^(k)T] and
    // d = alpha w + F e in one sweep over the rows of S. F[k] is summed
    // into d[e] the moment it is written, while the row is still in
    // cache, instead of re-reading all of F in a second pass. Arithmetic
    // order matches the unfused form (same k order per row), so results
    // are bit-identical.
    {
      ScopedStepTimer st(result.timers, "compute_Fd", iter_steps_ptr);
      // par_rows_trans serves the transposed gather from either backend
      // (tks[i] == trans_perm[base + i]); per-row k order is unchanged, so
      // the fused sum stays bit-identical.
      S.par_rows_trans([&](vid_t e, eid_t base, std::span<const vid_t>,
                           std::span<const eid_t> tks) {
        weight_t sum = 0.0;
        for (std::size_t i = 0; i < tks.size(); ++i) {
          const eid_t k = base + static_cast<eid_t>(i);
          F[k] = std::clamp(p.beta + sk_prev[tks[i]], 0.0, p.beta);
          sum += F[k];
        }
        d[e] = p.alpha * w[e] + sum;
      });
    }

    // --- Step 3: othermax, fused with the subtraction ---------------------
    // othermax_*_sub writes y = d - othermaxcol(z_prev) and
    // z = d - othermaxrow(y_prev) directly, eliminating the two
    // intermediate othermax vectors and the separate combine pass over
    // the edges of L.
    {
      ScopedStepTimer st(result.timers, "othermax", iter_steps_ptr);
      if (options.independent_othermax_tasks) {
        // The two othermax sweeps touch disjoint outputs and only read
        // the previous iterates plus d, so they can run as independent
        // tasks (paper Section IX's first future-work item).
        fenced_parallel([&] {
#pragma omp sections nowait
          {
#pragma omp section
            othermax_col_sub(L, z_prev, d, y);
#pragma omp section
            othermax_row_sub(L, y_prev, d, z);
          }
        });
      } else {
        othermax_col_sub(L, z_prev, d, y);
        othermax_row_sub(L, y_prev, d, z);
      }
    }

    // --- Step 4: S^(k) = diag(y + z - d) S - F ----------------------------
    {
      ScopedStepTimer st(result.timers, "update_S", iter_steps_ptr);
      fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
        for (vid_t e = 0; e < nrows; ++e) {
          const weight_t scale = y[e] + z[e] - d[e];
          for (eid_t k = S.row_begin(e); k < S.row_end(e); ++k) {
            sk[k] = scale - F[k];
          }
        }
      });
    }

    // --- Step 5: damping --------------------------------------------------
    const weight_t damp = std::pow(options.gamma, iter);
    {
      ScopedStepTimer st(result.timers, "damping", iter_steps_ptr);
      const weight_t g = damp;
      const weight_t omg = 1.0 - g;
      // The edge and square sweeps touch disjoint arrays, so one fenced
      // region with two independent (nowait) worksharing loops suffices.
      fenced_parallel([&] {
#pragma omp for schedule(static) nowait
        for (eid_t e = 0; e < m; ++e) {
          y[e] = g * y[e] + omg * y_prev[e];
          z[e] = g * z[e] + omg * z_prev[e];
          y_prev[e] = y[e];
          z_prev[e] = z[e];
        }
#pragma omp for schedule(static) nowait
        for (eid_t k = 0; k < nnz; ++k) {
          sk[k] = g * sk[k] + omg * sk_prev[k];
          sk_prev[k] = sk[k];
        }
      });
    }

    // --- Step 6: round y and z --------------------------------------------
    enqueue_round(y, iter);
    enqueue_round(z, iter);

    if (counters != nullptr) {
      // One y-update, one z-update per L edge plus one overlap-message
      // update per S nonzero (Listing 2 steps 3-5).
      counters->add("bp.message_updates",
                    2 * static_cast<std::int64_t>(m) +
                        static_cast<std::int64_t>(nnz));
    }
    if (trace != nullptr) {
      // On the last iteration, flush the pending roundings first so their
      // "matching" time is attributed to an iteration event instead of
      // falling outside the loop (batch sizes need not divide 2 * iters).
      if (iter == options.max_iterations) flush_batch();
      obs::TraceWriter::Fields extra;
      if (tracker.has_solution()) {
        extra = {{"best_objective", tracker.best().value.objective},
                 {"best_iteration", tracker.best_iteration()}};
      }
      trace->iteration(iter, damp, iter_steps, extra);
      iter_steps.clear();
    }
    result.iterations_completed = iter;
    if (budget.checkpoint_due(iter)) snapshot(iter);
  }
  flush_batch();
  // Final generation: on a stop it holds the last completed iteration (the
  // resume point); on completion it makes the file reflect the whole run.
  snapshot(result.iterations_completed);

  finalize_best(p, S, tracker, options.matcher, options.final_exact_round,
                counters, result);

  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace netalign
