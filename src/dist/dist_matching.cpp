#include "dist/dist_matching.hpp"

#include <algorithm>
#include <stdexcept>

#include "dist/reliable.hpp"
#include "matching/verify.hpp"

namespace netalign::dist {

namespace {

/// Wire format: one record type for both message kinds (MPI would use a
/// tag; the BSP simulator just carries the discriminator inline).
struct Wire {
  enum Kind : std::int32_t { kProposal = 0, kMatchedNotice = 1 };
  std::int32_t kind = 0;
  vid_t a = kInvalidVid;  ///< proposal: proposer; notice: matched vertex
  vid_t b = kInvalidVid;  ///< proposal: target; notice: the vertex's mate
};

/// Block partition of [0, n): owner(v) = v / block, block = ceil(n / P).
struct Partition {
  vid_t n = 0;
  vid_t block = 1;
  [[nodiscard]] int owner(vid_t v) const { return static_cast<int>(v / block); }
  [[nodiscard]] vid_t lo(int rank) const {
    return std::min<vid_t>(n, static_cast<vid_t>(rank) * block);
  }
  [[nodiscard]] vid_t hi(int rank) const {
    return std::min<vid_t>(n, static_cast<vid_t>(rank + 1) * block);
  }
};

/// Owned adjacency plus the matched view and mate map -- everything both
/// protocol variants share. A real implementation would hold only ghost
/// flags for remote neighbors; the simulation keeps a full-size matched
/// bitmap per rank for simplicity (it is still updated exclusively by
/// messages).
class MatchRankBase : public RankProgram {
 public:
  MatchRankBase(const BipartiteGraph& L, std::span<const weight_t> w,
                Partition part, int rank, DistMatchStats* stats)
      : part_(part), rank_(rank), stats_(stats) {
    const vid_t na = L.num_a();
    lo_ = part_.lo(rank);
    hi_ = part_.hi(rank);
    adj_ptr_.assign(static_cast<std::size_t>(hi_ - lo_) + 1, 0);
    for (vid_t v = lo_; v < hi_; ++v) {
      adj_ptr_[v - lo_ + 1] =
          adj_ptr_[v - lo_] +
          (v < na ? L.row_end(v) - L.row_begin(v)
                  : L.col_end(v - na) - L.col_begin(v - na));
    }
    adj_nbr_.resize(static_cast<std::size_t>(adj_ptr_.back()));
    adj_w_.resize(static_cast<std::size_t>(adj_ptr_.back()));
    for (vid_t v = lo_; v < hi_; ++v) {
      eid_t pos = adj_ptr_[v - lo_];
      if (v < na) {
        for (eid_t e = L.row_begin(v); e < L.row_end(v); ++e) {
          adj_nbr_[pos] = static_cast<vid_t>(na + L.edge_b(e));
          adj_w_[pos] = w[e];
          ++pos;
        }
      } else {
        for (eid_t k = L.col_begin(v - na); k < L.col_end(v - na); ++k) {
          adj_nbr_[pos] = L.col_a(k);
          adj_w_[pos] = w[L.col_edge(k)];
          ++pos;
        }
      }
    }
    matched_view_.assign(static_cast<std::size_t>(part_.n), 0);
    mate_.assign(static_cast<std::size_t>(hi_ - lo_), kInvalidVid);
    candidate_.assign(static_cast<std::size_t>(hi_ - lo_), kInvalidVid);
  }

  [[nodiscard]] vid_t lo() const { return lo_; }
  [[nodiscard]] vid_t hi() const { return hi_; }
  [[nodiscard]] const std::vector<vid_t>& mates() const { return mate_; }

 protected:
  /// FINDMATE against this rank's view: heaviest neighbor not known to be
  /// matched, ties toward the smaller id (identical to the shared-memory
  /// matcher, so results agree under any partitioning).
  [[nodiscard]] vid_t findmate(vid_t v) const {
    const vid_t i = v - lo_;
    weight_t max_wt = 0.0;
    vid_t max_id = kInvalidVid;
    for (eid_t k = adj_ptr_[i]; k < adj_ptr_[i + 1]; ++k) {
      const weight_t wt = adj_w_[k];
      if (wt <= 0.0) continue;
      const vid_t t = adj_nbr_[k];
      if (matched_view_[t]) continue;
      if (wt > max_wt ||
          (wt == max_wt && (max_id == kInvalidVid || t < max_id))) {
        max_wt = wt;
        max_id = t;
      }
    }
    return max_id;
  }

  Partition part_;
  int rank_;
  DistMatchStats* stats_;
  vid_t lo_ = 0, hi_ = 0;
  std::vector<eid_t> adj_ptr_;
  std::vector<vid_t> adj_nbr_;
  std::vector<weight_t> adj_w_;
  std::vector<std::uint8_t> matched_view_;
  std::vector<vid_t> mate_;       ///< owned vertices only
  std::vector<vid_t> candidate_;  ///< owned vertices only
};

/// One simulated rank of the synchronous (perfect-network) matcher.
class MatchRank : public MatchRankBase {
 public:
  using MatchRankBase::MatchRankBase;

  void step(RankContext& ctx) override {
    if (phase_ == 0) {
      propose(ctx);
    } else {
      resolve(ctx);
    }
    phase_ ^= 1;
  }

 private:
  /// PROPOSE: fold in matched notices, recompute candidates against the
  /// updated view, and propose to each candidate's owner.
  void propose(RankContext& ctx) {
    for (const Message& msg : ctx.inbox()) {
      const Wire wire = RankContext::decode<Wire>(msg);
      if (wire.kind == Wire::kMatchedNotice) {
        matched_view_[wire.a] = 1;
      }
    }
    bool any_candidate = false;
    for (vid_t v = lo_; v < hi_; ++v) {
      const vid_t i = v - lo_;
      if (mate_[i] != kInvalidVid) {
        candidate_[i] = kInvalidVid;
        continue;
      }
      candidate_[i] = findmate(v);
      if (candidate_[i] != kInvalidVid) {
        any_candidate = true;
        ctx.send(part_.owner(candidate_[i]),
                 Wire{Wire::kProposal, v, candidate_[i]});
        if (stats_) stats_->proposals += 1;
      }
    }
    if (!any_candidate) ctx.vote_halt();
  }

  /// RESOLVE: mutual proposals identify locally dominant edges. Both
  /// endpoint owners see the crossing proposal (each endpoint proposed in
  /// the same PROPOSE phase), so they decide consistently without an
  /// extra confirmation round.
  void resolve(RankContext& ctx) {
    for (const Message& msg : ctx.inbox()) {
      const Wire wire = RankContext::decode<Wire>(msg);
      if (wire.kind != Wire::kProposal) continue;
      const vid_t target = wire.b;  // owned by this rank
      const vid_t proposer = wire.a;
      const vid_t i = target - lo_;
      if (mate_[i] != kInvalidVid) continue;
      if (candidate_[i] == proposer) {
        mate_[i] = proposer;
        matched_view_[target] = 1;
        matched_view_[proposer] = 1;
        notify_neighbors(ctx, target);
      }
    }
    // Halting is decided in PROPOSE phases; RESOLVE never votes (a match
    // here generates notices that must be folded in first).
  }

  /// Tell the owner of every neighbor of v that v is now matched, so
  /// their candidate recomputation skips it. One notice per (neighbor
  /// owner, neighbor) pair; duplicates across neighbors on the same rank
  /// are filtered by the receiver's idempotent bitmap update.
  void notify_neighbors(RankContext& ctx, vid_t v) {
    const vid_t i = v - lo_;
    for (eid_t k = adj_ptr_[i]; k < adj_ptr_[i + 1]; ++k) {
      const int dest = part_.owner(adj_nbr_[k]);
      ctx.send(dest, Wire{Wire::kMatchedNotice, v, mate_[i]});
      if (stats_) stats_->notices += 1;
    }
  }

  int phase_ = 0;
};

/// One simulated rank of the asynchronous matcher used under faults,
/// running over the reliable channel. Event-driven (Hoepman-style): a
/// proposal is sent once per candidate change; an owned vertex matches its
/// candidate exactly when the candidate's crossing proposal has arrived;
/// a match broadcasts (vertex, mate) notices so courting vertices either
/// mirror the match (when they are the mate) or move on.
class ReliableMatchRank : public MatchRankBase {
 public:
  ReliableMatchRank(const BipartiteGraph& L, std::span<const weight_t> w,
                    Partition part, int rank, int num_ranks,
                    DistMatchStats* stats, FaultInjector* injector)
      : MatchRankBase(L, w, part, rank, stats),
        chan_(num_ranks, injector),
        pending_(mate_.size()) {}

  void step(RankContext& ctx) override {
    const std::vector<Message> msgs = chan_.receive(ctx);
    if (!started_) {
      started_ = true;
      for (vid_t v = lo_; v < hi_; ++v) {
        candidate_[v - lo_] = findmate(v);
        if (candidate_[v - lo_] != kInvalidVid) propose(ctx, v);
      }
    }
    for (const Message& msg : msgs) {
      const Wire wire = RankContext::decode<Wire>(msg);
      if (wire.kind == Wire::kProposal) {
        on_proposal(ctx, wire.a, wire.b);
      } else {
        on_notice(ctx, wire.a, wire.b);
      }
    }
    chan_.flush(ctx);
    // Protocol quiescence: nothing unacked. New events can only arrive as
    // messages, which revoke the vote through the runtime.
    if (chan_.idle()) ctx.vote_halt();
  }

 private:
  /// Send v's standing proposal; complete the match at once when the
  /// candidate's own proposal already arrived.
  void propose(RankContext& ctx, vid_t v) {
    const vid_t i = v - lo_;
    const vid_t u = candidate_[i];
    chan_.send(ctx, part_.owner(u), Wire{Wire::kProposal, v, u});
    if (stats_) stats_->proposals += 1;
    if (std::find(pending_[i].begin(), pending_[i].end(), u) !=
        pending_[i].end()) {
      match(ctx, v, u);
    }
  }

  void on_proposal(RankContext& ctx, vid_t proposer, vid_t target) {
    const vid_t i = target - lo_;
    // A proposal to an already-matched vertex is stale: the proposer will
    // move on when our (earlier-sent, reliably delivered) notice lands.
    if (mate_[i] != kInvalidVid) return;
    if (candidate_[i] == proposer) {
      match(ctx, target, proposer);
    } else {
      pending_[i].push_back(proposer);
    }
  }

  /// `x` is matched to `mx` somewhere. Courting vertices mirror the match
  /// when they are the mate, otherwise recompute and re-propose.
  void on_notice(RankContext& ctx, vid_t x, vid_t mx) {
    if (matched_view_[x]) return;
    matched_view_[x] = 1;
    for (vid_t v = lo_; v < hi_; ++v) {
      const vid_t i = v - lo_;
      if (mate_[i] != kInvalidVid || candidate_[i] != x) continue;
      if (mx == v) {
        match(ctx, v, x);
      } else {
        candidate_[i] = findmate(v);
        if (candidate_[i] != kInvalidVid) propose(ctx, v);
      }
    }
  }

  void match(RankContext& ctx, vid_t v, vid_t u) {
    const vid_t i = v - lo_;
    mate_[i] = u;
    pending_[i].clear();
    // Notices about v go to every neighbor's owner (our own copy of the
    // fact is applied locally below and the self-notice is idempotent).
    for (eid_t k = adj_ptr_[i]; k < adj_ptr_[i + 1]; ++k) {
      chan_.send(ctx, part_.owner(adj_nbr_[k]),
                 Wire{Wire::kMatchedNotice, v, u});
      if (stats_) stats_->notices += 1;
    }
    on_notice(ctx, v, u);
    // The mate's owner announces u's neighbors itself; locally we only
    // fold the fact in so our candidates stop courting u.
    on_notice(ctx, u, v);
  }

  ReliableChannel chan_;
  std::vector<std::vector<vid_t>> pending_;  ///< received proposers per owned
  bool started_ = false;
};

}  // namespace

BipartiteMatching distributed_locally_dominant_matching(
    const BipartiteGraph& L, std::span<const weight_t> w,
    const DistMatchOptions& options, DistMatchStats* stats) {
  if (static_cast<eid_t>(w.size()) != L.num_edges()) {
    throw std::invalid_argument(
        "distributed_locally_dominant_matching: weight size mismatch");
  }
  if (options.num_ranks < 1) {
    throw std::invalid_argument(
        "distributed_locally_dominant_matching: need >= 1 rank");
  }
  options.faults.validate();
  if (stats) *stats = DistMatchStats{};

  std::unique_ptr<FaultInjector> owned_injector;
  if (options.faults.any()) {
    owned_injector = std::make_unique<FaultInjector>(
        options.faults, options.counters, options.trace);
  }
  FaultInjector* const injector = owned_injector.get();

  const vid_t n = L.num_a() + L.num_b();
  Partition part;
  part.n = n;
  part.block = std::max<vid_t>(
      1, (n + options.num_ranks - 1) / options.num_ranks);
  // With block rounding, fewer ranks than requested may own vertices.
  const int ranks = n == 0 ? 1 : part.owner(n - 1) + 1;

  std::vector<std::unique_ptr<RankProgram>> programs;
  std::vector<MatchRankBase*> typed;
  programs.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    std::unique_ptr<MatchRankBase> p;
    if (injector != nullptr) {
      p = std::make_unique<ReliableMatchRank>(L, w, part, r, ranks, stats,
                                              injector);
    } else {
      p = std::make_unique<MatchRank>(L, w, part, r, stats);
    }
    typed.push_back(p.get());
    programs.push_back(std::move(p));
  }
  BspRuntime runtime;
  if (injector != nullptr) runtime.set_faults(injector);
  const BspStats bsp = runtime.run(programs, options.max_supersteps);
  if (stats) stats->bsp = bsp;

  // Gather the owned mate maps back into a BipartiteMatching.
  BipartiteMatching m;
  m.mate_a.assign(static_cast<std::size_t>(L.num_a()), kInvalidVid);
  m.mate_b.assign(static_cast<std::size_t>(L.num_b()), kInvalidVid);
  const vid_t na = L.num_a();
  for (const MatchRankBase* rank : typed) {
    for (vid_t v = rank->lo(); v < rank->hi(); ++v) {
      if (v >= na) continue;  // read each pair once, from its A side
      const vid_t g = rank->mates()[v - rank->lo()];
      if (g == kInvalidVid) continue;
      const vid_t b = g - na;
      m.mate_a[v] = b;
      m.mate_b[b] = v;
      m.cardinality += 1;
      m.weight += w[L.find_edge(v, b)];
    }
  }
  if (injector != nullptr) {
    // Degraded substrate => do not trust the protocol: re-verify the
    // locally-dominant guarantees on the gathered result.
    if (!is_valid_matching(L, m) || !is_maximal_matching(L, w, m)) {
      throw std::runtime_error(
          "distributed_locally_dominant_matching: faulted run produced an "
          "invalid or non-maximal matching");
    }
    if (stats) stats->faults = injector->stats();
  }
  return m;
}

}  // namespace netalign::dist
