#include "dist/dist_bp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "dist/dist_matching.hpp"
#include "dist/mailbox.hpp"
#include "matching/verify.hpp"
#include "netalign/rounding.hpp"
#include "netalign/solver_ckpt.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace netalign::dist {

namespace {

/// Transpose-gather message: the value of one squares-matrix nonzero,
/// addressed to the (global) slot that reads it through the permutation.
struct TransMsg {
  eid_t dest_slot;
  weight_t value;
};

/// Per-column (max, argmax, second-max) partial / combined triple.
struct ColTriple {
  vid_t b;
  weight_t m1;
  eid_t a1;
  weight_t m2;
  std::int32_t from_rank;  ///< partials: contributor; results: unused
};

/// Merge a partial into an accumulator, preserving the global CSC scan
/// semantics (strict improvement keeps the earliest argmax; an equal
/// maximum becomes the second maximum).
void merge_triple(weight_t m1, eid_t a1, weight_t m2, weight_t& acc_m1,
                  eid_t& acc_a1, weight_t& acc_m2) {
  if (m1 > acc_m1) {
    acc_m2 = std::max(acc_m1, m2);
    acc_m1 = m1;
    acc_a1 = a1;
  } else {
    acc_m2 = std::max(acc_m2, m1);
  }
}

struct RankState {
  vid_t alo = 0, ahi = 0;   // owned A vertices
  eid_t elo = 0, ehi = 0;   // owned L edges (contiguous, row-major)
  eid_t slo = 0, shi = 0;   // owned squares-matrix nonzeros

  // Edge-indexed state (local offset elo).
  std::vector<weight_t> y, z, y_prev, z_prev, d, om_row, om_col;
  // Nonzero-indexed state (local offset slo).
  std::vector<weight_t> sk, sk_prev, F, trans_vals;

  // othermax-col scratch: per-B-vertex accumulators plus touched lists.
  std::vector<weight_t> col_m1, col_m2;
  std::vector<eid_t> col_a1;
  std::vector<vid_t> touched;
  // Degraded fabric only: which columns got a reply this iteration. An
  // edge whose column is not fresh keeps its last-known om_col.
  std::vector<std::uint8_t> col_fresh;
};

}  // namespace

AlignResult distributed_belief_prop_align(const NetAlignProblem& p,
                                          const SquaresMatrix& S,
                                          const DistBpOptions& options,
                                          DistBpStats* stats) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("distributed_belief_prop_align: problem");
  }
  if (options.num_ranks < 1 || options.max_iterations < 1 ||
      options.gamma <= 0.0 || options.gamma > 1.0) {
    throw std::invalid_argument("distributed_belief_prop_align: options");
  }
  options.faults.validate();
  options.budget.validate("distributed_belief_prop_align");
  if (options.faults.any() && (!options.budget.checkpoint_path.empty() ||
                               !options.budget.resume_path.empty())) {
    // A degraded fabric replays from one RNG stream; a mid-run restart
    // cannot reproduce that stream, so the combination is refused rather
    // than silently nondeterministic.
    throw std::invalid_argument(
        "distributed_belief_prop_align: checkpoint/resume requires a "
        "fault-free fabric");
  }
  if (stats) *stats = DistBpStats{};

  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const eid_t nnz = S.num_nonzeros();
  const vid_t na = L.num_a();
  const vid_t nb = L.num_b();
  const int P = options.num_ranks;
  const auto sptr = S.pattern().row_ptr();
  const auto scol = S.pattern().col_idx();
  const auto perm = S.trans_perm();
  const auto w = L.weights();

  // 1-D partitions.
  const vid_t ablock = std::max<vid_t>(1, (na + P - 1) / P);
  const vid_t bblock = std::max<vid_t>(1, (nb + P - 1) / P);
  auto owner_a = [&](vid_t a) { return static_cast<int>(a / ablock); };
  auto owner_b = [&](vid_t b) { return static_cast<int>(b / bblock); };
  auto owner_edge = [&](eid_t e) { return owner_a(L.edge_a(e)); };

  std::vector<RankState> ranks(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    RankState& st = ranks[r];
    st.alo = std::min<vid_t>(na, static_cast<vid_t>(r) * ablock);
    st.ahi = std::min<vid_t>(na, static_cast<vid_t>(r + 1) * ablock);
    st.elo = st.alo < na ? L.row_begin(st.alo) : m;
    st.ehi = st.ahi < na ? L.row_begin(st.ahi) : m;
    st.slo = sptr[st.elo];
    st.shi = sptr[st.ehi];
    const auto ne = static_cast<std::size_t>(st.ehi - st.elo);
    const auto ns = static_cast<std::size_t>(st.shi - st.slo);
    st.y.assign(ne, 0.0);
    st.z.assign(ne, 0.0);
    st.y_prev.assign(ne, 0.0);
    st.z_prev.assign(ne, 0.0);
    st.d.assign(ne, 0.0);
    st.om_row.assign(ne, 0.0);
    st.om_col.assign(ne, 0.0);
    st.sk.assign(ns, 0.0);
    st.sk_prev.assign(ns, 0.0);
    st.F.assign(ns, 0.0);
    st.trans_vals.assign(ns, 0.0);
    st.col_m1.assign(static_cast<std::size_t>(nb), kNegInf);
    st.col_m2.assign(static_cast<std::size_t>(nb), kNegInf);
    st.col_a1.assign(static_cast<std::size_t>(nb), kInvalidEid);
  }

  // Degraded-fabric state. A stalled rank sits out whole iterations; its
  // messages, y/z/sk and om values stay as the last completed iteration
  // left them (BP's damping absorbs the staleness).
  std::unique_ptr<FaultInjector> injector;
  if (options.faults.any()) {
    injector = std::make_unique<FaultInjector>(
        options.faults, options.counters, options.trace);
    for (RankState& st : ranks) {
      st.col_fresh.assign(static_cast<std::size_t>(nb), 0);
    }
  }
  std::vector<std::uint8_t> stalled(static_cast<std::size_t>(P), 0);
  std::vector<int> stall_left(static_cast<std::size_t>(P), 0);
  std::vector<std::size_t> stale_streak(static_cast<std::size_t>(P), 0);
  std::size_t stalled_iterations = 0;
  std::size_t max_staleness = 0;
  std::size_t stale_columns = 0;

  BspStats bsp;
  Mailbox<TransMsg> trans_mail(P, injector.get());
  Mailbox<ColTriple> col_mail(P, injector.get());
  // Column owners remember who contributed to each column this iteration.
  std::vector<std::unordered_map<vid_t, std::vector<std::int32_t>>>
      contributors(static_cast<std::size_t>(P));

  WallTimer total_timer;
  AlignResult result;
  BestSolutionTracker tracker;
  std::vector<weight_t> gathered(static_cast<std::size_t>(m), 0.0);
  obs::TraceWriter* trace = options.trace;
  obs::Counters* counters = options.counters;
  // The simulated substrate has no per-step timers; iteration events carry
  // the BSP traffic deltas as extra fields instead.
  const StepTimers no_steps;

  // Allgather volume for rounding, accounted from the gathers that actually
  // ran (a deadline- or signal-stopped run gathers less than a full one).
  std::size_t gather_bytes = 0;

  // Round a gathered heuristic vector; uses the distributed matcher when
  // the configured matcher is the locally-dominant one.
  auto round_gathered = [&](int iter) {
    gather_bytes += static_cast<std::size_t>(m) * sizeof(weight_t);
    RoundOutcome outcome;
    if (options.matcher == MatcherKind::kLocallyDominant) {
      DistMatchOptions mopt;
      mopt.num_ranks = P;
      // Share this run's injector (and its stream) with the nested
      // matcher so the whole run replays from one seed.
      mopt.injector = injector.get();
      DistMatchStats mstats;
      outcome.matching = distributed_locally_dominant_matching(
          L, gathered, mopt, &mstats);
      bsp.supersteps += mstats.bsp.supersteps;
      bsp.messages += mstats.bsp.messages;
      bsp.remote_messages += mstats.bsp.remote_messages;
      bsp.bytes += mstats.bsp.bytes;
      bsp.max_h_relation =
          std::max(bsp.max_h_relation, mstats.bsp.max_h_relation);
    } else {
      outcome.matching = run_matcher(L, gathered, options.matcher, counters);
    }
    outcome.value = evaluate_objective(p, S, outcome.matching);
    tracker.offer(outcome, gathered, iter);
    if (options.record_history) {
      result.objective_history.push_back(outcome.value.objective);
    }
    if (trace != nullptr) {
      trace->round(iter, to_string(options.matcher),
                   outcome.matching.cardinality, outcome.value.weight,
                   outcome.value.overlap, outcome.value.objective);
    }
  };

  // --- Checkpoint/resume hooks. Rank partitions are contiguous (elo..ehi,
  // slo..shi), so the concatenation of the per-rank damped iterates is the
  // same global array the shared-memory solver would hold; the checkpoint
  // stores that concatenation plus the cumulative BSP traffic.
  const SolveBudget& budget = options.budget;
  int start_iter = 1;
  if (!budget.resume_path.empty()) {
    const ckpt::ResumeState rs = ckpt::load_for_resume(
        budget.resume_path, "dist_bp", m, nnz, P,
        "distributed_belief_prop_align", tracker, result, trace, counters);
    io::ByteReader r(rs.checkpoint.section("dist.bp.state").payload);
    const auto gy = r.pod_vector<weight_t>();
    const auto gz = r.pod_vector<weight_t>();
    const auto gs = r.pod_vector<weight_t>();
    if (gy.size() != static_cast<std::size_t>(m) ||
        gz.size() != static_cast<std::size_t>(m) ||
        gs.size() != static_cast<std::size_t>(nnz)) {
      throw std::runtime_error(
          "distributed_belief_prop_align: dist.bp.state size mismatch");
    }
    for (RankState& st : ranks) {
      std::copy(gy.begin() + st.elo, gy.begin() + st.ehi, st.y_prev.begin());
      std::copy(gz.begin() + st.elo, gz.begin() + st.ehi, st.z_prev.begin());
      std::copy(gs.begin() + st.slo, gs.begin() + st.shi,
                st.sk_prev.begin());
      st.y = st.y_prev;
      st.z = st.z_prev;
      st.sk = st.sk_prev;
    }
    bsp.supersteps = r.u64();
    bsp.messages = r.u64();
    bsp.remote_messages = r.u64();
    bsp.bytes = r.u64();
    bsp.max_h_relation = r.u64();
    gather_bytes = r.u64();
    start_iter = rs.iter + 1;
    result.resumed_from = rs.iter;
    if (!options.record_history) result.objective_history.clear();
  }
  result.iterations_completed = start_iter - 1;

  int last_snapshot_iter = -1;
  auto snapshot = [&](int iter) {
    if (budget.checkpoint_path.empty() || iter == last_snapshot_iter) return;
    io::Checkpoint c;
    c.solver = "dist_bp";
    ckpt::write_meta(c, "dist_bp", m, nnz, P);
    ckpt::write_progress(c, iter, tracker, result);
    std::vector<weight_t> gy(static_cast<std::size_t>(m));
    std::vector<weight_t> gz(static_cast<std::size_t>(m));
    std::vector<weight_t> gs(static_cast<std::size_t>(nnz));
    for (const RankState& st : ranks) {
      std::copy(st.y_prev.begin(), st.y_prev.end(), gy.begin() + st.elo);
      std::copy(st.z_prev.begin(), st.z_prev.end(), gz.begin() + st.elo);
      std::copy(st.sk_prev.begin(), st.sk_prev.end(), gs.begin() + st.slo);
    }
    io::ByteWriter state;
    state.pod_vector(gy);
    state.pod_vector(gz);
    state.pod_vector(gs);
    state.u64(bsp.supersteps);
    state.u64(bsp.messages);
    state.u64(bsp.remote_messages);
    state.u64(bsp.bytes);
    state.u64(bsp.max_h_relation);
    state.u64(gather_bytes);
    c.add("dist.bp.state").payload = state.take();
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
      // rank and proceeds with last-known values).
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
    // --- Phase 1: transpose gather for F --------------------------------
    // Owner of nonzero s ships sk_prev[s] to the owner of perm[s], which
    // lives in the row of s's column edge.
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      RankState& st = ranks[r];
      for (eid_t s = st.slo; s < st.shi; ++s) {
        trans_mail.send(r, owner_edge(scol[s]),
                        TransMsg{perm[s], st.sk_prev[s - st.slo]});
      }
    }
    trans_mail.deliver(bsp);
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;  // F, d, om_row keep last-known values
      RankState& st = ranks[r];
      for (const TransMsg& msg : trans_mail.inbox(r)) {
        st.trans_vals[msg.dest_slot - st.slo] = msg.value;
      }
      // F, d and the row othermax are local to the rank.
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        weight_t sum = 0.0;
        for (eid_t s = sptr[e]; s < sptr[e + 1]; ++s) {
          const weight_t f =
              std::clamp(p.beta + st.trans_vals[s - st.slo], 0.0, p.beta);
          st.F[s - st.slo] = f;
          sum += f;
        }
        st.d[e - st.elo] = p.alpha * w[e] + sum;
      }
      for (vid_t a = st.alo; a < st.ahi; ++a) {
        weight_t max1 = kNegInf, max2 = kNegInf;
        eid_t arg1 = kInvalidEid;
        for (eid_t e = L.row_begin(a); e < L.row_end(a); ++e) {
          const weight_t v = st.y_prev[e - st.elo];
          if (v > max1) {
            max2 = max1;
            max1 = v;
            arg1 = e;
          } else if (v > max2) {
            max2 = v;
          }
        }
        for (eid_t e = L.row_begin(a); e < L.row_end(a); ++e) {
          st.om_row[e - st.elo] = std::max(e == arg1 ? max2 : max1, 0.0);
        }
      }
    }

    // --- Phase 2: column partials to the column owners ------------------
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      RankState& st = ranks[r];
      st.touched.clear();
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        const vid_t b = L.edge_b(e);
        const weight_t v = st.z_prev[e - st.elo];
        if (st.col_a1[b] == kInvalidEid && st.col_m1[b] == kNegInf) {
          st.touched.push_back(b);
        }
        if (v > st.col_m1[b]) {
          st.col_m2[b] = st.col_m1[b];
          st.col_m1[b] = v;
          st.col_a1[b] = e;
        } else if (v > st.col_m2[b]) {
          st.col_m2[b] = v;
        }
      }
      for (const vid_t b : st.touched) {
        col_mail.send(r, owner_b(b),
                      ColTriple{b, st.col_m1[b], st.col_a1[b], st.col_m2[b],
                                static_cast<std::int32_t>(r)});
        st.col_m1[b] = kNegInf;
        st.col_m2[b] = kNegInf;
        st.col_a1[b] = kInvalidEid;
      }
    }
    col_mail.deliver(bsp);

    // --- Phase 3: combine per column, reply to contributors -------------
    for (int r = 0; r < P; ++r) {
      // A stalled column owner sends no replies this iteration; its
      // contributors keep their last-known othermax (freshness filter in
      // phase 4). The unread partials are gone at the next boundary.
      if (stalled[r]) continue;
      RankState& st = ranks[r];
      auto& contrib = contributors[r];
      contrib.clear();
      st.touched.clear();
      for (const ColTriple& t : col_mail.inbox(r)) {
        // A delay fault can push a phase-4 reply into this boundary; its
        // from_rank tag (-1) keeps it out of the partial merge.
        if (injector && t.from_rank < 0) continue;
        if (st.col_a1[t.b] == kInvalidEid && st.col_m1[t.b] == kNegInf) {
          st.touched.push_back(t.b);
        }
        merge_triple(t.m1, t.a1, t.m2, st.col_m1[t.b], st.col_a1[t.b],
                     st.col_m2[t.b]);
        contrib[t.b].push_back(t.from_rank);
      }
      for (const vid_t b : st.touched) {
        for (const std::int32_t dest : contrib[b]) {
          col_mail.send(r, dest,
                        ColTriple{b, st.col_m1[b], st.col_a1[b],
                                  st.col_m2[b], -1});
        }
        st.col_m1[b] = kNegInf;
        st.col_m2[b] = kNegInf;
        st.col_a1[b] = kInvalidEid;
      }
    }
    col_mail.deliver(bsp);

    // --- Phase 4: finish othermax-col, update messages, damp ------------
    const weight_t g = std::pow(options.gamma, iter);
    const weight_t omg = 1.0 - g;
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;  // messages stay damped at last values
      RankState& st = ranks[r];
      st.touched.clear();
      for (const ColTriple& t : col_mail.inbox(r)) {
        // A delayed phase-2 partial (from_rank >= 0) is not a reply.
        if (injector && t.from_rank >= 0) continue;
        st.col_m1[t.b] = t.m1;
        st.col_a1[t.b] = t.a1;
        st.col_m2[t.b] = t.m2;
        st.touched.push_back(t.b);
        if (injector) st.col_fresh[t.b] = 1;
      }
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        const vid_t b = L.edge_b(e);
        if (injector && !st.col_fresh[b]) {
          // Reply lost (or its owner stalled): keep last-known om_col.
          stale_columns += 1;
          continue;
        }
        const weight_t other =
            e == st.col_a1[b] ? st.col_m2[b] : st.col_m1[b];
        st.om_col[e - st.elo] = std::max(other, 0.0);
      }
      for (const vid_t b : st.touched) {
        st.col_m1[b] = kNegInf;
        st.col_m2[b] = kNegInf;
        st.col_a1[b] = kInvalidEid;
        if (injector) st.col_fresh[b] = 0;
      }
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        const eid_t i = e - st.elo;
        st.y[i] = st.d[i] - st.om_col[i];
        st.z[i] = st.d[i] - st.om_row[i];
      }
      for (eid_t e = st.elo; e < st.ehi; ++e) {
        const eid_t i = e - st.elo;
        const weight_t scale = st.y[i] + st.z[i] - st.d[i];
        for (eid_t s = sptr[e]; s < sptr[e + 1]; ++s) {
          st.sk[s - st.slo] = scale - st.F[s - st.slo];
        }
      }
      for (eid_t i = 0; i < st.ehi - st.elo; ++i) {
        st.y[i] = g * st.y[i] + omg * st.y_prev[i];
        st.z[i] = g * st.z[i] + omg * st.z_prev[i];
        st.y_prev[i] = st.y[i];
        st.z_prev[i] = st.z[i];
      }
      for (eid_t i = 0; i < st.shi - st.slo; ++i) {
        st.sk[i] = g * st.sk[i] + omg * st.sk_prev[i];
        st.sk_prev[i] = st.sk[i];
      }
    }

    // --- Rounding (allgather + distributed matcher) ----------------------
    // A stalled rank contributes its last-gathered segment (its local
    // y/z are unchanged anyway, so skipping the copy is the same values).
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      const RankState& st = ranks[r];
      std::copy(st.y.begin(), st.y.end(), gathered.begin() + st.elo);
    }
    round_gathered(iter);
    for (int r = 0; r < P; ++r) {
      if (stalled[r]) continue;
      const RankState& st = ranks[r];
      std::copy(st.z.begin(), st.z.end(), gathered.begin() + st.elo);
    }
    round_gathered(iter);

    if (trace != nullptr) {
      obs::TraceWriter::Fields fields{
          {"supersteps", static_cast<std::int64_t>(bsp.supersteps -
                                                   bsp_before.supersteps)},
          {"messages",
           static_cast<std::int64_t>(bsp.messages - bsp_before.messages)},
          {"remote_messages",
           static_cast<std::int64_t>(bsp.remote_messages -
                                     bsp_before.remote_messages)},
          {"bytes", static_cast<std::int64_t>(bsp.bytes - bsp_before.bytes)}};
      if (injector) fields.emplace_back("stalled_ranks", stalled_now);
      if (tracker.has_solution()) {
        fields.emplace_back("best_objective", tracker.best().value.objective);
        fields.emplace_back("best_iteration", tracker.best_iteration());
      }
      trace->iteration(iter, g, no_steps, fields);
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
    if (injector) {
      counters->add("dist.stalled_iterations",
                    static_cast<std::int64_t>(stalled_iterations));
      counters->add("dist.max_staleness",
                    static_cast<std::int64_t>(max_staleness));
      counters->add("dist.stale_columns",
                    static_cast<std::int64_t>(stale_columns));
    }
  }

  finalize_best(p, S, tracker, options.matcher, options.final_exact_round,
                counters, result);
  result.total_seconds = total_timer.seconds();
  if (injector) {
    // Degraded substrate => never hand back an unchecked solution.
    if (!is_valid_matching(L, result.matching)) {
      throw std::runtime_error(
          "distributed_belief_prop_align: faulted run produced an invalid "
          "matching");
    }
    if (stats) {
      stats->fault_stats = injector->stats();
      stats->stalled_iterations = stalled_iterations;
      stats->max_staleness = max_staleness;
      stats->stale_columns = stale_columns;
    }
  }
  if (stats) {
    stats->bsp = bsp;
    stats->gather_bytes = gather_bytes;
  }
  return result;
}

}  // namespace netalign::dist
