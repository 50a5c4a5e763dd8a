#include "netalign/othermax.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"

namespace netalign {
namespace {

using testing::random_bipartite;

/// Brute-force reference: for edge e, the max of g over all other edges
/// sharing the chosen side's vertex, clamped at 0.
std::vector<weight_t> brute_othermax(const BipartiteGraph& L,
                                     std::span<const weight_t> g,
                                     bool by_row) {
  std::vector<weight_t> out(static_cast<std::size_t>(L.num_edges()));
  for (eid_t e = 0; e < L.num_edges(); ++e) {
    weight_t best = kNegInf;
    for (eid_t f = 0; f < L.num_edges(); ++f) {
      if (f == e) continue;
      const bool shares = by_row ? (L.edge_a(f) == L.edge_a(e))
                                 : (L.edge_b(f) == L.edge_b(e));
      if (shares) best = std::max(best, g[f]);
    }
    out[e] = std::max(best, 0.0);
  }
  return out;
}

TEST(Othermax, RowMatchesBruteForce) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto L = random_bipartite(7, 6, 20, rng);
    std::vector<weight_t> g(static_cast<std::size_t>(L.num_edges()));
    for (auto& v : g) v = rng.uniform(-2.0, 2.0);
    std::vector<weight_t> out(g.size());
    othermax_row(L, g, out);
    const auto expected = brute_othermax(L, g, /*by_row=*/true);
    for (eid_t e = 0; e < L.num_edges(); ++e) {
      EXPECT_DOUBLE_EQ(out[e], expected[e]) << "trial " << trial;
    }
  }
}

TEST(Othermax, ColMatchesBruteForce) {
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const auto L = random_bipartite(6, 7, 20, rng);
    std::vector<weight_t> g(static_cast<std::size_t>(L.num_edges()));
    for (auto& v : g) v = rng.uniform(-2.0, 2.0);
    std::vector<weight_t> out(g.size());
    othermax_col(L, g, out);
    const auto expected = brute_othermax(L, g, /*by_row=*/false);
    for (eid_t e = 0; e < L.num_edges(); ++e) {
      EXPECT_DOUBLE_EQ(out[e], expected[e]) << "trial " << trial;
    }
  }
}

TEST(Othermax, SingletonRowGivesZero) {
  // A row with one edge has an empty "other" set; bound_{0,inf} of an
  // empty max is 0.
  const std::vector<LEdge> edges = {{0, 0, 5.0}};
  const auto L = BipartiteGraph::from_edges(1, 1, edges);
  std::vector<weight_t> g = {5.0}, out(1);
  othermax_row(L, g, out);
  EXPECT_EQ(out[0], 0.0);
  othermax_col(L, g, out);
  EXPECT_EQ(out[0], 0.0);
}

TEST(Othermax, ArgmaxGetsSecondMax) {
  // Row of three edges with values 3, 7, 5: the 7-edge sees 5, others see 7.
  const std::vector<LEdge> edges = {{0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}};
  const auto L = BipartiteGraph::from_edges(1, 3, edges);
  std::vector<weight_t> g = {3.0, 7.0, 5.0}, out(3);
  othermax_row(L, g, out);
  EXPECT_EQ(out[0], 7.0);
  EXPECT_EQ(out[1], 5.0);
  EXPECT_EQ(out[2], 7.0);
}

TEST(Othermax, TiedMaximaSeeEachOther) {
  const std::vector<LEdge> edges = {{0, 0, 1.0}, {0, 1, 1.0}};
  const auto L = BipartiteGraph::from_edges(1, 2, edges);
  std::vector<weight_t> g = {4.0, 4.0}, out(2);
  othermax_row(L, g, out);
  EXPECT_EQ(out[0], 4.0);
  EXPECT_EQ(out[1], 4.0);
}

TEST(Othermax, NegativeValuesClampToZero) {
  const std::vector<LEdge> edges = {{0, 0, 1.0}, {0, 1, 1.0}};
  const auto L = BipartiteGraph::from_edges(1, 2, edges);
  std::vector<weight_t> g = {-1.0, -2.0}, out(2);
  othermax_row(L, g, out);
  EXPECT_EQ(out[0], 0.0);  // max of others is -2, clamped to 0
  EXPECT_EQ(out[1], 0.0);
}

TEST(Othermax, SingletonRowSubReturnsDUnchanged) {
  // The fused subtraction on a single-entry row: othermax is 0 (empty
  // "other" set under bound_{0,inf}), so out = d - max(0, 0) = d exactly.
  const std::vector<LEdge> edges = {{0, 0, 5.0}};
  const auto L = BipartiteGraph::from_edges(1, 1, edges);
  std::vector<weight_t> g = {5.0}, d = {3.25}, out(1);
  othermax_row_sub(L, g, d, out);
  EXPECT_EQ(out[0], 3.25);
  othermax_col_sub(L, g, d, out);
  EXPECT_EQ(out[0], 3.25);
}

TEST(Othermax, SubVariantsBitIdenticalToUnfused) {
  // othermax_{row,col}_sub must equal othermax_{row,col} followed by
  // out = d - max(om, 0) bit-for-bit: BP's fused Step 3 relies on it.
  Xoshiro256 rng(44);
  for (int trial = 0; trial < 50; ++trial) {
    const auto L = random_bipartite(7, 6, 20, rng);
    const auto n = static_cast<std::size_t>(L.num_edges());
    std::vector<weight_t> g(n), d(n);
    for (auto& v : g) v = rng.uniform(-2.0, 2.0);
    for (auto& v : d) v = rng.uniform(-2.0, 2.0);
    std::vector<weight_t> om(n), expected(n), fused(n);
    for (const bool by_row : {true, false}) {
      by_row ? othermax_row(L, g, om) : othermax_col(L, g, om);
      for (std::size_t e = 0; e < n; ++e) {
        expected[e] = d[e] - std::max(om[e], 0.0);
      }
      by_row ? othermax_row_sub(L, g, d, fused)
             : othermax_col_sub(L, g, d, fused);
      for (std::size_t e = 0; e < n; ++e) {
        EXPECT_EQ(fused[e], expected[e]) << "trial " << trial;
      }
    }
  }
}

TEST(Othermax, SubSizeMismatchThrows) {
  const auto L = BipartiteGraph::from_edges(1, 1,
                                            std::vector<LEdge>{{0, 0, 1.0}});
  std::vector<weight_t> g = {1.0}, out(1);
  std::vector<weight_t> bad_d(2);
  EXPECT_THROW(othermax_row_sub(L, g, bad_d, out), std::invalid_argument);
  EXPECT_THROW(othermax_row_sub(L, g, g, g), std::invalid_argument);
}

TEST(Othermax, SizeMismatchThrows) {
  const auto L = BipartiteGraph::from_edges(1, 1,
                                            std::vector<LEdge>{{0, 0, 1.0}});
  std::vector<weight_t> g = {1.0};
  std::vector<weight_t> bad(2);
  EXPECT_THROW(othermax_row(L, g, bad), std::invalid_argument);
}

TEST(Othermax, InPlaceCallRejected) {
  const auto L = BipartiteGraph::from_edges(1, 1,
                                            std::vector<LEdge>{{0, 0, 1.0}});
  std::vector<weight_t> g = {1.0};
  EXPECT_THROW(othermax_row(L, g, g), std::invalid_argument);
}

}  // namespace
}  // namespace netalign
