// Distributed-memory locally-dominant 1/2-approximate matching over the
// simulated BSP substrate (dist/bsp.hpp).
//
// This realizes the paper's Section IX outlook -- "a distributed
// half-approximation matching algorithm [29]" (Catalyurek, Dobrian,
// Gebremedhin, Halappanavar, Pothen) -- in the message-passing style that
// a real MPI deployment would use:
//
//  - vertices (both sides of L, in the same global id space as the
//    shared-memory matcher) are block-partitioned across ranks, each rank
//    owning its vertices' adjacency;
//  - over a perfect network, supersteps alternate between a PROPOSE phase
//    (recompute candidates against the rank's view of who is matched, send
//    a proposal to the owner of the chosen neighbor) and a RESOLVE phase
//    (mutual proposals = a locally dominant edge: match it and notify the
//    owners of all neighbors so their views update);
//  - a rank votes to halt when none of its unmatched vertices has an
//    eligible neighbor; the run ends at global quiescence.
//
// Under an active FaultPlan (fault.hpp) the synchronous protocol is wrong
// -- a dropped notice livelocks it, a delayed proposal desynchronizes the
// two phase-locked owners -- so the run switches to the asynchronous
// event-driven variant of the same algorithm (Hoepman / Manne-Bisseling
// style) over the reliable-delivery channel (reliable.hpp): proposals are
// sent once per candidate change, received proposals are remembered per
// owned vertex, and an edge is matched exactly when each endpoint's
// candidate is the other AND the crossing proposal has arrived. Exactly-
// once in-order delivery restores the invariants the synchronous proof
// needs, so the matching at quiescence is the same locally-dominant
// matching -- valid, maximal, and >= 1/2 of the optimal weight -- which
// the driver re-verifies via matching/verify on every faulted run.
//
// Determinism: the BSP simulator executes ranks sequentially and all fault
// decisions come from the plan's seeded stream, so any (plan, input) pair
// replays bit-identically. Over a perfect network the result is also
// independent of the rank count -- a property the tests check, along with
// maximality and the 1/2 weight bound. The BSP statistics (supersteps,
// message and byte volumes, max h-relation) are the machine-independent
// communication costs a real cluster run would pay.
#pragma once

#include <cstddef>
#include <span>

#include "dist/bsp.hpp"
#include "dist/fault.hpp"
#include "matching/matching.hpp"

namespace netalign::dist {

struct DistMatchOptions {
  int num_ranks = 4;
  /// Simulated network faults. A plan with any() true routes the run
  /// through the reliable asynchronous protocol; the default (perfect
  /// fabric) keeps the synchronous propose/resolve path byte-identical to
  /// the fault-free substrate.
  FaultPlan faults;
  /// Deadlock guard forwarded to BspRuntime::run.
  std::size_t max_supersteps = 1000000;
  /// Telemetry sinks for the run's fault injector (`fault.*` / `rel.*`
  /// counters, `fault` trace events). Null = disabled.
  obs::Counters* counters = nullptr;
  obs::TraceWriter* trace = nullptr;
};

struct DistMatchStats {
  BspStats bsp;
  eid_t proposals = 0;  ///< proposal messages sent (first transmissions)
  eid_t notices = 0;    ///< matched-notification messages sent (ditto)
  /// Snapshot of the injector's tallies after the run.
  FaultStats faults;
};

/// Distributed locally-dominant matching on L under external weights
/// (w <= 0 edges ignored), simulated with `num_ranks` ranks.
BipartiteMatching distributed_locally_dominant_matching(
    const BipartiteGraph& L, std::span<const weight_t> w,
    const DistMatchOptions& options = {}, DistMatchStats* stats = nullptr);

}  // namespace netalign::dist
