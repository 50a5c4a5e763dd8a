#include "dist/dist_mr.hpp"

#include <algorithm>
#include <stdexcept>

#include <memory>

#include "dist/dist_matching.hpp"
#include "dist/mailbox.hpp"
#include "matching/small_mwm.hpp"
#include "matching/verify.hpp"
#include "netalign/rounding.hpp"
#include "netalign/solver_ckpt.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace netalign::dist {

namespace {

/// Transpose exchange payload: a value addressed to a global S slot.
struct SlotMsg {
  eid_t dest_slot;
  weight_t value;
};

struct MrRankState {
  vid_t alo = 0, ahi = 0;
  eid_t elo = 0, ehi = 0;
  eid_t slo = 0, shi = 0;

  std::vector<weight_t> u;          // owned slots (upper triangle nonzero)
  std::vector<weight_t> u_trans;    // gathered U^T values per owned slot
  std::vector<std::uint8_t> sl;     // owned row-matching indicators
  std::vector<weight_t> sl_trans;   // gathered S_L^T flags per owned slot
  std::vector<weight_t> d;          // owned edges
  std::vector<weight_t> wbar;       // owned edges

  SmallMwmSolver solver;
  std::vector<SmallMwmSolver::Edge> row_edges;
  std::vector<std::uint8_t> row_chosen;
};

}  // namespace

AlignResult distributed_klau_mr_align(const NetAlignProblem& p,
                                      const SquaresMatrix& S,
                                      const DistMrOptions& options,
                                      DistMrStats* stats) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("distributed_klau_mr_align: problem");
  }
  if (options.num_ranks < 1 || options.max_iterations < 1 ||
      options.gamma <= 0.0 || options.mstep < 1) {
    throw std::invalid_argument("distributed_klau_mr_align: options");
  }
  options.faults.validate();
  options.budget.validate("distributed_klau_mr_align");
  if (options.faults.any() && (!options.budget.checkpoint_path.empty() ||
                               !options.budget.resume_path.empty())) {
    // Same refusal as distributed BP: the fault stream is not resumable.
    throw std::invalid_argument(
        "distributed_klau_mr_align: checkpoint/resume requires a fault-free "
        "fabric");
  }
  if (stats) *stats = DistMrStats{};

  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const eid_t nnz = S.num_nonzeros();
  const vid_t na = L.num_a();
  const int P = options.num_ranks;
  const auto sptr = S.pattern().row_ptr();
  const auto scol = S.pattern().col_idx();
  const auto perm = S.trans_perm();
  const auto w = L.weights();
  const weight_t half_beta = p.beta / 2.0;
  const weight_t u_bound = options.bound_scale * half_beta;

  const vid_t ablock = std::max<vid_t>(1, (na + P - 1) / P);
  auto owner_a = [&](vid_t a) { return static_cast<int>(a / ablock); };
  auto owner_edge = [&](eid_t e) { return owner_a(L.edge_a(e)); };

  std::vector<MrRankState> ranks(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    MrRankState& st = ranks[r];
    st.alo = std::min<vid_t>(na, static_cast<vid_t>(r) * ablock);
    st.ahi = std::min<vid_t>(na, static_cast<vid_t>(r + 1) * ablock);
    st.elo = st.alo < na ? L.row_begin(st.alo) : m;
    st.ehi = st.ahi < na ? L.row_begin(st.ahi) : m;
    st.slo = sptr[st.elo];
    st.shi = sptr[st.ehi];
    st.u.assign(static_cast<std::size_t>(st.shi - st.slo), 0.0);
    st.u_trans.assign(st.u.size(), 0.0);
    st.sl.assign(st.u.size(), 0);
    st.sl_trans.assign(st.u.size(), 0.0);
    st.d.assign(static_cast<std::size_t>(st.ehi - st.elo), 0.0);
    st.wbar.assign(st.d.size(), 0.0);
    eid_t max_row = 0;
    for (eid_t e = st.elo; e < st.ehi; ++e) {
      max_row = std::max(max_row, sptr[e + 1] - sptr[e]);
    }
    st.row_edges.reserve(static_cast<std::size_t>(max_row));
    st.row_chosen.resize(static_cast<std::size_t>(max_row));
  }

  // Degraded-fabric state. A stalled rank sits out whole iterations: it
  // neither sends, reads, nor updates -- its multipliers, d, and wbar stay
  // exactly as the last completed iteration left them, which is the
  // stale-value semantics the subgradient iteration tolerates.
  std::unique_ptr<FaultInjector> injector;
  if (options.faults.any()) {
    injector = std::make_unique<FaultInjector>(
        options.faults, options.counters, options.trace);
  }
  std::vector<std::uint8_t> stalled(static_cast<std::size_t>(P), 0);
  std::vector<int> stall_left(static_cast<std::size_t>(P), 0);
  std::vector<std::size_t> stale_streak(static_cast<std::size_t>(P), 0);
  std::size_t stalled_iterations = 0;
  std::size_t max_staleness = 0;

  BspStats bsp;
  // One mailbox per exchange: a delay fault may carry a message across
  // phase boundaries, and separate channels keep a late U value from ever
  // being parsed as an S_L flag.
  Mailbox<SlotMsg> u_mail(P, injector.get());
  Mailbox<SlotMsg> sl_mail(P, injector.get());
  auto transpose_exchange = [&](Mailbox<SlotMsg>& mail, auto get_value,
                                auto set_value) {
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      MrRankState& st = ranks[r];
      for (eid_t s = st.slo; s < st.shi; ++s) {
        mail.send(r, owner_edge(scol[s]),
                  SlotMsg{perm[s], get_value(st, s - st.slo)});
      }
    }
    mail.deliver(bsp);
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      MrRankState& st = ranks[r];
      for (const SlotMsg& msg : mail.inbox(r)) {
        set_value(st, msg.dest_slot - st.slo, msg.value);
      }
    }
  };

  WallTimer total_timer;
  AlignResult result;
  BestSolutionTracker tracker;
  std::vector<weight_t> gathered(static_cast<std::size_t>(m), 0.0);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(m), 0);
  weight_t gamma = options.gamma;
  weight_t best_upper = kPosInf;
  int since_upper_improved = 0;
  obs::TraceWriter* trace = options.trace;
  obs::Counters* counters = options.counters;
  // The simulated substrate has no per-step timers; iteration events carry
  // the BSP traffic deltas as extra fields instead.
  const StepTimers no_steps;
  // Allgather + indicator-broadcast volume, accounted from the exchanges
  // that actually ran.
  std::size_t gather_bytes = 0;

  // --- Checkpoint/resume hooks. Slot partitions are contiguous
  // (slo..shi), so the concatenated per-rank multipliers are the global U
  // the shared-memory solver would hold; everything else in MrRankState is
  // recomputed from U each iteration on a fault-free fabric.
  const SolveBudget& budget = options.budget;
  int start_iter = 1;
  if (!budget.resume_path.empty()) {
    const ckpt::ResumeState rs = ckpt::load_for_resume(
        budget.resume_path, "dist_mr", m, nnz, P,
        "distributed_klau_mr_align", tracker, result, trace, counters);
    io::ByteReader r(rs.checkpoint.section("dist.mr.state").payload);
    const auto gu = r.pod_vector<weight_t>();
    if (gu.size() != static_cast<std::size_t>(nnz)) {
      throw std::runtime_error(
          "distributed_klau_mr_align: dist.mr.state size mismatch");
    }
    for (MrRankState& st : ranks) {
      std::copy(gu.begin() + st.slo, gu.begin() + st.shi, st.u.begin());
    }
    gamma = r.f64();
    best_upper = r.f64();
    since_upper_improved = r.i32();
    bsp.supersteps = r.u64();
    bsp.messages = r.u64();
    bsp.remote_messages = r.u64();
    bsp.bytes = r.u64();
    bsp.max_h_relation = r.u64();
    gather_bytes = r.u64();
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
    c.solver = "dist_mr";
    ckpt::write_meta(c, "dist_mr", m, nnz, P);
    ckpt::write_progress(c, iter, tracker, result);
    std::vector<weight_t> gu(static_cast<std::size_t>(nnz));
    for (const MrRankState& st : ranks) {
      std::copy(st.u.begin(), st.u.end(), gu.begin() + st.slo);
    }
    io::ByteWriter state;
    state.pod_vector(gu);
    state.f64(gamma);
    state.f64(best_upper);
    state.i32(since_upper_improved);
    state.u64(bsp.supersteps);
    state.u64(bsp.messages);
    state.u64(bsp.remote_messages);
    state.u64(bsp.bytes);
    state.u64(bsp.max_h_relation);
    state.u64(gather_bytes);
    c.add("dist.mr.state").payload = state.take();
    ckpt::commit_checkpoint(c, budget.checkpoint_path, iter, trace, counters);
    last_snapshot_iter = iter;
  };

  for (int iter = start_iter; iter <= options.max_iterations; ++iter) {
    if (const StopReason why = budget.interruption(total_timer.seconds());
        why != StopReason::kCompleted) {
      result.stopped_reason = why;
      break;
    }
    const BspStats bsp_before = bsp;
    int stalled_now = 0;
    if (injector) {
      // One stall roll per rank per iteration: a stall of k covers k whole
      // iterations (every phase boundary inside them times out on the
      // rank and proceeds with stale values).
      for (int r = 0; r < P; ++r) {
        if (stall_left[r] > 0) {
          stall_left[r] -= 1;
          stalled[r] = 1;
        } else if (const int k = injector->roll_stall(r); k > 0) {
          stall_left[r] = k - 1;
          stalled[r] = 1;
        } else {
          stalled[r] = 0;
        }
        if (stalled[r]) {
          stalled_iterations += 1;
          stale_streak[r] += 1;
          max_staleness = std::max(max_staleness, stale_streak[r]);
          stalled_now += 1;
        } else {
          stale_streak[r] = 0;
        }
      }
    }
    // --- Step 1: transpose-gather U, then local exact row matchings -----
    transpose_exchange(
        u_mail, [](const MrRankState& st, eid_t i) { return st.u[i]; },
        [](MrRankState& st, eid_t i, weight_t v) { st.u_trans[i] = v; });
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;  // d, wbar, gathered keep stale values
      MrRankState& st = ranks[r];
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        const eid_t lo = sptr[e], hi = sptr[e + 1];
        if (lo == hi) {
          st.d[e - st.elo] = 0.0;
          continue;
        }
        st.row_edges.clear();
        for (eid_t s = lo; s < hi; ++s) {
          const eid_t f = scol[s];
          st.row_edges.push_back(SmallMwmSolver::Edge{
              L.edge_a(f), L.edge_b(f),
              half_beta + st.u[s - st.slo] - st.u_trans[s - st.slo]});
        }
        const std::size_t len = st.row_edges.size();
        st.d[e - st.elo] = st.solver.solve(
            st.row_edges, std::span(st.row_chosen.data(), len));
        for (eid_t s = lo; s < hi; ++s) {
          st.sl[s - st.slo] = st.row_chosen[s - lo];
        }
      }
      // --- Step 2: wbar, local ------------------------------------------
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        st.wbar[e - st.elo] = p.alpha * w[e] + st.d[e - st.elo];
      }
      std::copy(st.wbar.begin(), st.wbar.end(), gathered.begin() + st.elo);
    }

    // --- Step 3: global matching on the distributed matcher -------------
    // w-bar allgather plus the indicator broadcast back.
    gather_bytes += static_cast<std::size_t>(m) * (sizeof(weight_t) + 1);
    DistMatchOptions mopt;
    mopt.num_ranks = P;
    // Share the iteration's injector (and its stream) with the nested
    // matcher so the whole run replays from one seed.
    mopt.injector = injector.get();
    DistMatchStats mstats;
    const BipartiteMatching matching =
        distributed_locally_dominant_matching(L, gathered, mopt, &mstats);
    bsp.supersteps += mstats.bsp.supersteps;
    bsp.messages += mstats.bsp.messages;
    bsp.remote_messages += mstats.bsp.remote_messages;
    bsp.bytes += mstats.bsp.bytes;
    bsp.max_h_relation =
        std::max(bsp.max_h_relation, mstats.bsp.max_h_relation);
    std::fill(x.begin(), x.end(), std::uint8_t{0});
    for (vid_t a = 0; a < na; ++a) {
      if (matching.mate_a[a] != kInvalidVid) {
        x[L.find_edge(a, matching.mate_a[a])] = 1;
      }
    }

    // --- Step 4: objective and upper bound (sum reduction) --------------
    RoundOutcome outcome;
    outcome.matching = matching;
    outcome.value = evaluate_objective(p, S, x);
    weight_t upper = 0.0;
    for (int r = 0; r < P; ++r) {
      const MrRankState& st = ranks[r];
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        if (x[e]) upper += st.wbar[e - st.elo];
      }
    }
    tracker.offer(outcome, gathered, iter);
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

    // --- Step 5: transpose-gather S_L, local multiplier update ----------
    const weight_t step_gamma = gamma;
    transpose_exchange(
        sl_mail,
        [](const MrRankState& st, eid_t i) {
          return static_cast<weight_t>(st.sl[i]);
        },
        [](MrRankState& st, eid_t i, weight_t v) { st.sl_trans[i] = v; });
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;  // multipliers stay stale for the streak
      MrRankState& st = ranks[r];
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        for (eid_t s = sptr[e]; s < sptr[e + 1]; ++s) {
          const vid_t f = scol[s];
          if (static_cast<eid_t>(e) >= static_cast<eid_t>(f)) continue;
          weight_t u = st.u[s - st.slo];
          if (x[e] && st.sl[s - st.slo]) u -= gamma;
          if (x[f] && st.sl_trans[s - st.slo] > 0.5) u += gamma;
          st.u[s - st.slo] = std::clamp(u, -u_bound, u_bound);
        }
      }
    }
    if (since_upper_improved >= options.mstep) {
      gamma /= 2.0;
      since_upper_improved = 0;
    }

    if (trace != nullptr) {
      trace->round(iter, to_string(MatcherKind::kLocallyDominant),
                   outcome.matching.cardinality, outcome.value.weight,
                   outcome.value.overlap, outcome.value.objective);
      obs::TraceWriter::Fields fields{
          {"objective", outcome.value.objective},
          {"upper_bound", upper},
          {"best_upper_bound", best_upper},
          {"supersteps", static_cast<std::int64_t>(bsp.supersteps -
                                                   bsp_before.supersteps)},
          {"messages",
           static_cast<std::int64_t>(bsp.messages - bsp_before.messages)},
          {"bytes", static_cast<std::int64_t>(bsp.bytes - bsp_before.bytes)}};
      if (injector) fields.emplace_back("stalled_ranks", stalled_now);
      if (tracker.has_solution()) {
        fields.emplace_back("best_objective", tracker.best().value.objective);
        fields.emplace_back("best_iteration", tracker.best_iteration());
      }
      trace->iteration(iter, step_gamma, no_steps, fields);
    }
    result.iterations_completed = iter;
    if (budget.checkpoint_due(iter)) snapshot(iter);
  }
  snapshot(result.iterations_completed);

  if (counters != nullptr) {
    counters->add("dist.supersteps",
                  static_cast<std::int64_t>(bsp.supersteps));
    counters->add("dist.messages", static_cast<std::int64_t>(bsp.messages));
    counters->add("dist.remote_messages",
                  static_cast<std::int64_t>(bsp.remote_messages));
    counters->add("dist.bytes", static_cast<std::int64_t>(bsp.bytes));
    counters->add("dist.gather_bytes",
                  static_cast<std::int64_t>(gather_bytes));
    for (const auto& st : ranks) {
      counters->add("mr.small_mwm_calls", st.solver.solve_calls());
      counters->add("mr.small_mwm_edges", st.solver.edges_seen());
    }
    if (injector) {
      counters->add("dist.stalled_iterations",
                    static_cast<std::int64_t>(stalled_iterations));
      counters->add("dist.max_staleness",
                    static_cast<std::int64_t>(max_staleness));
    }
  }

  result.best_upper_bound = best_upper;
  finalize_best(p, S, tracker, MatcherKind::kLocallyDominant,
                options.final_exact_round, counters, result);
  result.total_seconds = total_timer.seconds();
  if (injector) {
    // Degraded substrate => never hand back an unchecked solution.
    if (!is_valid_matching(L, result.matching)) {
      throw std::runtime_error(
          "distributed_klau_mr_align: faulted run produced an invalid "
          "matching");
    }
    if (stats) {
      stats->fault_stats = injector->stats();
      stats->stalled_iterations = stalled_iterations;
      stats->max_staleness = max_staleness;
    }
  }
  if (stats) {
    stats->bsp = bsp;
    stats->gather_bytes = gather_bytes;
  }
  return result;
}

}  // namespace netalign::dist
