// Fault-injection suite (CTest labels: tier1, fault): the distributed
// matcher must keep its guarantees on an adversarial-but-reproducible
// fabric. Three properties anchor the tests (docs/ARCHITECTURE.md "Fault
// model & reliable delivery"):
//  - survival: with any plan that allows eventual delivery (drop_rate < 1)
//    dist_matching terminates and still produces a valid, maximal,
//    half-approximate matching, rank stalls included;
//  - determinism: the same (plan, program) pair replays bit-identically,
//    matchings and fault tallies alike;
//  - zero-cost default: an all-zero plan is byte-identical in behavior and
//    BspStats to the pre-fault substrate.
#include "dist/fault.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "dist/dist_matching.hpp"
#include "helpers.hpp"
#include "matching/exact_mwm.hpp"
#include "matching/verify.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace netalign {
namespace {

using dist::DistMatchOptions;
using dist::DistMatchStats;
using dist::distributed_locally_dominant_matching;
using dist::FaultInjector;
using dist::FaultPlan;
using dist::FaultStats;
using testing::own_weights;
using testing::random_bipartite;

FaultPlan lossy_plan(std::uint64_t seed, double drop) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = drop;
  return plan;
}

TEST(FaultPlan, ValidateRejectsBadRatesAndBounds) {
  FaultPlan plan;
  plan.drop_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.drop_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = {};
  plan.delay_rate = 0.5;
  plan.max_delay = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = {};
  plan.stall_rate = 0.5;
  plan.max_stall = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = {};
  plan.duplicate_rate = 2.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = {};
  plan.reorder_rate = -1.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, DefaultPlanIsPerfectFabric) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any());
  plan.validate();  // must not throw
  plan.drop_rate = 0.01;
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, SolversRejectInvalidPlans) {
  const BipartiteGraph g =
      BipartiteGraph::from_edges(2, 2, std::vector<LEdge>{{0, 0, 1.0}});
  DistMatchOptions opt;
  opt.faults.drop_rate = 7.0;
  EXPECT_THROW(distributed_locally_dominant_matching(g, own_weights(g), opt),
               std::invalid_argument);
}

TEST(FaultMatching, SurvivesMessageLossWithGuarantees) {
  Xoshiro256 rng(91);
  for (int trial = 0; trial < 12; ++trial) {
    const auto g = random_bipartite(10, 10, 32, rng);
    const auto w = own_weights(g);
    DistMatchOptions opt;
    opt.num_ranks = 4;
    opt.faults = lossy_plan(1000 + static_cast<std::uint64_t>(trial), 0.2);
    DistMatchStats stats;
    const auto m = distributed_locally_dominant_matching(g, w, opt, &stats);
    const auto exact = max_weight_matching_exact(g, w);
    ASSERT_TRUE(is_valid_matching(g, m)) << "trial " << trial;
    EXPECT_TRUE(is_maximal_matching(g, w, m)) << "trial " << trial;
    EXPECT_GE(m.weight, 0.5 * exact.weight - 1e-9) << "trial " << trial;
    EXPECT_LE(m.weight, exact.weight + 1e-9) << "trial " << trial;
  }
}

TEST(FaultMatching, SurvivesEveryFaultKindAtOnce) {
  Xoshiro256 rng(92);
  std::size_t dropped = 0, duplicated = 0, delayed = 0, reordered = 0,
              stalls = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = random_bipartite(12, 12, 40, rng);
    const auto w = own_weights(g);
    DistMatchOptions opt;
    opt.num_ranks = 4;
    opt.faults.seed = 5000 + static_cast<std::uint64_t>(trial);
    opt.faults.drop_rate = 0.1;
    opt.faults.duplicate_rate = 0.1;
    opt.faults.delay_rate = 0.1;
    opt.faults.max_delay = 3;
    opt.faults.reorder_rate = 0.3;
    opt.faults.stall_rate = 0.05;
    opt.faults.max_stall = 2;
    DistMatchStats stats;
    const auto m = distributed_locally_dominant_matching(g, w, opt, &stats);
    const auto exact = max_weight_matching_exact(g, w);
    ASSERT_TRUE(is_valid_matching(g, m)) << "trial " << trial;
    EXPECT_TRUE(is_maximal_matching(g, w, m)) << "trial " << trial;
    EXPECT_GE(m.weight, 0.5 * exact.weight - 1e-9) << "trial " << trial;
    dropped += stats.faults.dropped;
    duplicated += stats.faults.duplicated;
    delayed += stats.faults.delayed;
    reordered += stats.faults.reordered;
    stalls += stats.faults.stalls;
  }
  // Across ten trials every fault kind must actually have fired, or the
  // suite is vacuously green.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(stalls, 0u);
}

TEST(FaultMatching, ReliableShimReactsToLossAndDuplication) {
  Xoshiro256 rng(93);
  const auto g = random_bipartite(20, 20, 120, rng);
  const auto w = own_weights(g);
  DistMatchOptions opt;
  opt.num_ranks = 6;
  opt.faults.seed = 77;
  opt.faults.drop_rate = 0.25;
  opt.faults.duplicate_rate = 0.25;
  opt.faults.delay_rate = 0.15;
  DistMatchStats stats;
  const auto m = distributed_locally_dominant_matching(g, w, opt, &stats);
  EXPECT_TRUE(is_valid_matching(g, m));
  // Lost messages force retransmits; network duplicates (and retransmits
  // of messages that did arrive) are suppressed by sequence numbers;
  // delays force out-of-order buffering; quiet receivers emit pure acks.
  EXPECT_GT(stats.faults.retransmits, 0u);
  EXPECT_GT(stats.faults.duplicates_suppressed, 0u);
  EXPECT_GT(stats.faults.out_of_order_buffered, 0u);
  EXPECT_GT(stats.faults.acks, 0u);
}

TEST(FaultMatching, DeterministicReplayForSameSeed) {
  Xoshiro256 rng(94);
  const auto g = random_bipartite(15, 15, 60, rng);
  const auto w = own_weights(g);
  DistMatchOptions opt;
  opt.num_ranks = 4;
  opt.faults.seed = 4242;
  opt.faults.drop_rate = 0.2;
  opt.faults.duplicate_rate = 0.1;
  opt.faults.delay_rate = 0.1;
  opt.faults.reorder_rate = 0.2;
  opt.faults.stall_rate = 0.05;

  DistMatchStats s1, s2;
  const auto m1 = distributed_locally_dominant_matching(g, w, opt, &s1);
  const auto m2 = distributed_locally_dominant_matching(g, w, opt, &s2);
  EXPECT_EQ(m1.mate_a, m2.mate_a);
  EXPECT_EQ(m1.mate_b, m2.mate_b);
  EXPECT_EQ(s1.bsp.supersteps, s2.bsp.supersteps);
  EXPECT_EQ(s1.bsp.messages, s2.bsp.messages);
  EXPECT_EQ(s1.bsp.bytes, s2.bsp.bytes);
  EXPECT_EQ(s1.faults.dropped, s2.faults.dropped);
  EXPECT_EQ(s1.faults.duplicated, s2.faults.duplicated);
  EXPECT_EQ(s1.faults.delayed, s2.faults.delayed);
  EXPECT_EQ(s1.faults.reordered, s2.faults.reordered);
  EXPECT_EQ(s1.faults.stalls, s2.faults.stalls);
  EXPECT_EQ(s1.faults.retransmits, s2.faults.retransmits);
  EXPECT_EQ(s1.faults.duplicates_suppressed, s2.faults.duplicates_suppressed);
  EXPECT_EQ(s1.faults.out_of_order_buffered, s2.faults.out_of_order_buffered);
  EXPECT_EQ(s1.faults.acks, s2.faults.acks);
}

TEST(FaultMatching, ZeroRatePlanMatchesFaultFreeRunExactly) {
  Xoshiro256 rng(95);
  const auto g = random_bipartite(20, 20, 100, rng);
  const auto w = own_weights(g);

  DistMatchOptions plain;
  plain.num_ranks = 5;
  DistMatchStats sp;
  const auto mp = distributed_locally_dominant_matching(g, w, plain, &sp);

  DistMatchOptions zeroed;
  zeroed.num_ranks = 5;
  zeroed.faults.seed = 999;  // seed alone must not change anything
  DistMatchStats sz;
  const auto mz = distributed_locally_dominant_matching(g, w, zeroed, &sz);

  EXPECT_EQ(mp.mate_a, mz.mate_a);
  EXPECT_EQ(sp.bsp.supersteps, sz.bsp.supersteps);
  EXPECT_EQ(sp.bsp.messages, sz.bsp.messages);
  EXPECT_EQ(sp.bsp.bytes, sz.bsp.bytes);
  EXPECT_EQ(sp.proposals, sz.proposals);
  EXPECT_EQ(sp.notices, sz.notices);
  EXPECT_EQ(sz.faults.dropped, 0u);
  EXPECT_EQ(sz.faults.retransmits, 0u);
}

TEST(FaultMatching, CountersAndTraceRecordInjectedFaults) {
  Xoshiro256 rng(96);
  const auto g = random_bipartite(12, 12, 50, rng);
  const auto w = own_weights(g);
  std::ostringstream trace_out;
  obs::TraceWriter trace(&trace_out);
  obs::Counters counters;
  DistMatchOptions opt;
  opt.num_ranks = 4;
  opt.counters = &counters;
  opt.trace = &trace;
  opt.faults.seed = 31;
  opt.faults.drop_rate = 0.2;
  opt.faults.stall_rate = 0.05;
  DistMatchStats stats;
  const auto m = distributed_locally_dominant_matching(g, w, opt, &stats);
  EXPECT_TRUE(is_valid_matching(g, m));

  // Counter registry mirrors the injector tallies exactly.
  EXPECT_EQ(counters.total("fault.drop"),
            static_cast<std::int64_t>(stats.faults.dropped));
  EXPECT_EQ(counters.total("fault.stall"),
            static_cast<std::int64_t>(stats.faults.stalls));
  EXPECT_EQ(counters.total("rel.retransmits"),
            static_cast<std::int64_t>(stats.faults.retransmits));
  EXPECT_GT(counters.total("fault.drop"), 0);

  // Each fault is a parseable JSONL `fault` event with kind/from/to.
  std::istringstream lines(trace_out.str());
  std::string line;
  std::size_t fault_events = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue v = obs::parse_json(line);
    const obs::JsonValue* type = v.find("event");
    ASSERT_NE(type, nullptr) << line;
    if (type->as_string() != "fault") continue;
    fault_events += 1;
    ASSERT_NE(v.find("kind"), nullptr) << line;
    const std::string kind = v.find("kind")->as_string();
    EXPECT_TRUE(kind == "drop" || kind == "duplicate" || kind == "delay" ||
                kind == "reorder" || kind == "stall")
        << kind;
    EXPECT_NE(v.find("from"), nullptr) << line;
    EXPECT_NE(v.find("to"), nullptr) << line;
    EXPECT_NE(v.find("amount"), nullptr) << line;
  }
  EXPECT_EQ(fault_events,
            stats.faults.dropped + stats.faults.duplicated +
                stats.faults.delayed + stats.faults.reordered +
                stats.faults.stalls);
}

}  // namespace
}  // namespace netalign
