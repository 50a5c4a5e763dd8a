// round_heuristic (paper Table I): turn a real-valued heuristic weight
// vector over E_L into a matching with a pluggable bipartite matcher, then
// evaluate the alignment objective of that matching. The choice between
// the exact solver and the parallel 1/2-approximation is the paper's
// central experimental knob.
#pragma once

#include <span>
#include <string>

#include "matching/exact_mwm.hpp"
#include "matching/locally_dominant.hpp"
#include "matching/matching.hpp"
#include "netalign/objective.hpp"
#include "netalign/result.hpp"
#include "netalign/squares_view.hpp"

namespace netalign::obs {
class Counters;
}  // namespace netalign::obs

namespace netalign::io {
class ByteReader;
class ByteWriter;
}  // namespace netalign::io

namespace netalign {

enum class MatcherKind {
  kExact,            ///< sparse Hungarian (Section V's "exact" baseline)
  kLocallyDominant,  ///< the paper's parallel 1/2-approximation
  kGreedy,           ///< sorted greedy 1/2-approximation
  kSuitor,           ///< extension: Suitor 1/2-approximation
  kAuction,          ///< extension: epsilon-scaling auction (near-exact)
  kPathGrowing,      ///< extension: path-growing with per-path DP
};

[[nodiscard]] std::string to_string(MatcherKind k);
/// Parse "exact" / "approx" (alias of locally-dominant) / "greedy" /
/// "suitor"; throws std::invalid_argument otherwise.
[[nodiscard]] MatcherKind matcher_from_string(const std::string& name);

/// Reusable scratch for repeated round_heuristic / run_matcher calls: the
/// locally-dominant matcher's per-vertex state plus the objective's 0/1
/// indicator buffer. Callers that round in a loop (BP's batched flushes,
/// MR's per-iteration match) keep one workspace per concurrent call so
/// every rounding after the first allocates nothing. Results never depend
/// on the workspace; it only recycles storage.
struct RoundWorkspace {
  LdWorkspace ld;
  std::vector<std::uint8_t> indicator;
};

/// Run the selected matcher on L under weights g. When `counters` is
/// given, matcher-internal counts (suitor proposals/displacements,
/// locally-dominant rounds and scans) are accumulated into it; the adds go
/// through Counters::add_concurrent because BP's batched rounding invokes
/// matchers from concurrent tasks. `workspace` (optional) recycles matcher
/// scratch between calls; matchers without workspace support ignore it.
BipartiteMatching run_matcher(const BipartiteGraph& L,
                              std::span<const weight_t> g, MatcherKind kind,
                              obs::Counters* counters = nullptr,
                              RoundWorkspace* workspace = nullptr);

struct RoundOutcome {
  BipartiteMatching matching;
  ObjectiveValue value;
};

/// Match under g, then score against the *problem's* objective (alpha x'w
/// + beta/2 x'Sx -- with L's own weights w, not g). S is either backend
/// through SquaresView.
RoundOutcome round_heuristic(const NetAlignProblem& p, const SquaresView& S,
                             std::span<const weight_t> g, MatcherKind kind,
                             obs::Counters* counters = nullptr,
                             RoundWorkspace* workspace = nullptr);

/// Tracks the best rounded solution across iterations, plus the heuristic
/// vector that produced it (the methods return "the x with the largest
/// objective", and the final exact re-rounding needs the producing g).
class BestSolutionTracker {
 public:
  /// Record a rounding outcome from iteration `iter` produced by heuristic
  /// vector g. Returns true if it became the new best.
  bool offer(const RoundOutcome& outcome, std::span<const weight_t> g,
             int iter);

  [[nodiscard]] bool has_solution() const { return best_iter_ >= 0; }
  [[nodiscard]] const RoundOutcome& best() const { return best_; }
  [[nodiscard]] const std::vector<weight_t>& best_heuristic() const {
    return best_g_;
  }
  [[nodiscard]] int best_iteration() const { return best_iter_; }

  /// Checkpoint the full tracker state / restore it (io/checkpoint.hpp
  /// payload encoding). save/load round-trips bit-exactly, which keeps a
  /// resumed run's best-so-far comparisons identical to the uninterrupted
  /// run's.
  void save(io::ByteWriter& w) const;
  void load(io::ByteReader& r);

 private:
  RoundOutcome best_;
  std::vector<weight_t> best_g_;
  int best_iter_ = -1;
};

/// Uniform solver tail shared by BP, MR and IsoRank:
/// copy the tracker's best rounding (matching, value, best_iteration)
/// into the result, then optionally re-round its heuristic vector with
/// the exact matcher (paper Section VII), keeping whichever scores
/// higher. The re-round time lands in result.timers["final_exact_round"].
/// With an empty tracker (a run stopped before its first rounding) the
/// result keeps an empty-but-valid matching and best_iteration -1.
void finalize_best(const NetAlignProblem& p, const SquaresView& S,
                   const BestSolutionTracker& tracker, MatcherKind matcher,
                   bool final_exact_round, obs::Counters* counters,
                   AlignResult& result);

}  // namespace netalign
