// Seeded, deterministic fault injection for the simulated BSP substrate.
//
// The BSP simulator (bsp.hpp) assumes a perfect fabric:
// in-order, exactly-once delivery and ranks that never pause. A real
// MPI/RDMA deployment exhibits none of those guarantees under pressure, so
// this layer lets any distributed run face an adversarial-but-reproducible
// network: per-message drop / duplicate / delay probabilities, per-inbox
// reordering at delivery boundaries, and per-rank stalls lasting several
// supersteps.
//
// Determinism: every decision is drawn from one xoshiro256** stream seeded
// from the plan, and the substrate consults the injector in a fixed
// program order (stall rolls per rank at superstep start, message rolls in
// send order, reorder rolls per inbox at delivery). The same (plan,
// program) pair therefore replays bit-identically -- the property
// tools/check_robustness.sh asserts across repeated runs.
//
// Accounting: the substrate charges dropped messages to BspStats exactly
// like delivered ones (the sender paid for them); duplicates injected by
// the "network" are not charged to the sender. Every injected fault is
// tallied in FaultStats, mirrored into an obs::Counters registry under
// `fault.*` / `rel.*`, and emitted as a JSONL `fault` trace event when
// those sinks are attached (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace netalign::obs {
class Counters;
class TraceWriter;
}  // namespace netalign::obs

namespace netalign::dist {

/// What the simulated network is allowed to do to a run. All rates are
/// probabilities in [0, 1]; a default-constructed plan is a perfect fabric
/// (`any()` is false) and the substrate skips the injector entirely.
struct FaultPlan {
  std::uint64_t seed = 0;      ///< seeds every fault decision
  double drop_rate = 0.0;      ///< P(message silently lost)
  double duplicate_rate = 0.0; ///< P(message delivered twice)
  double delay_rate = 0.0;     ///< P(message held 1..max_delay boundaries)
  int max_delay = 3;           ///< delays drawn uniformly from [1, max_delay]
  double reorder_rate = 0.0;   ///< P(an inbox is shuffled at delivery)
  double stall_rate = 0.0;     ///< P(a rank stalls at a superstep start)
  int max_stall = 2;           ///< stalls drawn uniformly from [1, max_stall]

  [[nodiscard]] bool any() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 ||
           reorder_rate > 0.0 || stall_rate > 0.0;
  }
  /// Throws std::invalid_argument on out-of-range rates or bounds.
  void validate() const;
};

/// Tally of injected faults plus the reliable-delivery shim's reactions
/// (reliable.hpp); one registry so a run's whole fault story reads in one
/// place.
struct FaultStats {
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t delayed = 0;
  std::size_t reordered = 0;    ///< inboxes shuffled, not messages
  std::size_t stalls = 0;       ///< stall events
  // ReliableChannel reactions:
  std::size_t retransmits = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t out_of_order_buffered = 0;
  std::size_t acks = 0;  ///< pure (non-piggybacked) ack messages
};

/// Draws all fault decisions for one run. Not thread-safe (the BSP
/// simulator is sequential).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan,
                         obs::Counters* counters = nullptr,
                         obs::TraceWriter* trace = nullptr);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  /// Message-level rolls, consulted by the substrate in send order.
  bool roll_drop(int from, int to);
  bool roll_duplicate(int from, int to);
  /// 0 = deliver on time, k > 0 = hold for k extra boundaries.
  int roll_delay(int from, int to);
  /// Whether to shuffle `inbox_size` messages arriving at `rank`.
  bool roll_reorder(int rank, std::size_t inbox_size);
  /// 0 = run this superstep, k > 0 = stall for k supersteps.
  int roll_stall(int rank);

  /// Fisher-Yates off the injector's stream (used for reorder faults).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[rng_.uniform_int(i)]);
    }
  }

  /// Reliable-delivery shim accounting (counted, not rolled).
  void note_retransmit();
  void note_duplicate_suppressed();
  void note_out_of_order_buffered();
  void note_ack();

 private:
  void record(const char* kind, int from, int to, std::int64_t amount);

  FaultPlan plan_;
  FaultStats stats_;
  Xoshiro256 rng_;
  obs::Counters* counters_;
  obs::TraceWriter* trace_;
};

}  // namespace netalign::dist
