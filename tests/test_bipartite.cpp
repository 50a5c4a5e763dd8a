#include "graph/bipartite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace netalign {
namespace {

TEST(BipartiteGraph, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 4, {});
  EXPECT_EQ(g.num_a(), 3);
  EXPECT_EQ(g.num_b(), 4);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.find_edge(0, 0), kInvalidEid);
}

TEST(BipartiteGraph, EdgeIdsFollowRowMajorOrder) {
  const std::vector<LEdge> edges = {{1, 0, 0.5}, {0, 1, 0.25}, {0, 0, 1.0}};
  const BipartiteGraph g = BipartiteGraph::from_edges(2, 2, edges);
  ASSERT_EQ(g.num_edges(), 3);
  // Row 0 first (cols sorted), then row 1.
  EXPECT_EQ(g.edge_a(0), 0);
  EXPECT_EQ(g.edge_b(0), 0);
  EXPECT_EQ(g.edge_weight(0), 1.0);
  EXPECT_EQ(g.edge_a(1), 0);
  EXPECT_EQ(g.edge_b(1), 1);
  EXPECT_EQ(g.edge_a(2), 1);
  EXPECT_EQ(g.edge_b(2), 0);
}

TEST(BipartiteGraph, DuplicateEdgesKeepMaxWeight) {
  const std::vector<LEdge> edges = {{0, 0, 0.25}, {0, 0, 0.75}};
  const BipartiteGraph g = BipartiteGraph::from_edges(1, 1, edges);
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge_weight(0), 0.75);
}

TEST(BipartiteGraph, OutOfRangeEndpointThrows) {
  const std::vector<LEdge> edges = {{0, 9, 1.0}};
  EXPECT_THROW(BipartiteGraph::from_edges(2, 2, edges), std::out_of_range);
}

TEST(BipartiteGraph, FindEdgeLocatesAll) {
  const std::vector<LEdge> edges = {{0, 2, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}};
  const BipartiteGraph g = BipartiteGraph::from_edges(2, 3, edges);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.find_edge(g.edge_a(e), g.edge_b(e)), e);
  }
  EXPECT_EQ(g.find_edge(0, 0), kInvalidEid);
}

TEST(BipartiteGraph, CscViewIsConsistentWithCsr) {
  Xoshiro256 rng(31);
  std::vector<LEdge> edges;
  for (int i = 0; i < 60; ++i) {
    edges.push_back(LEdge{static_cast<vid_t>(rng.uniform_int(8)),
                          static_cast<vid_t>(rng.uniform_int(9)),
                          rng.uniform(0.1, 1.0)});
  }
  const BipartiteGraph g = BipartiteGraph::from_edges(8, 9, edges);

  // Every CSC slot maps back to the CSR edge it mirrors.
  eid_t seen = 0;
  for (vid_t b = 0; b < g.num_b(); ++b) {
    for (eid_t k = g.col_begin(b); k < g.col_end(b); ++k) {
      const eid_t e = g.col_edge(k);
      EXPECT_EQ(g.edge_b(e), b);
      EXPECT_EQ(g.edge_a(e), g.col_a(k));
      ++seen;
    }
  }
  EXPECT_EQ(seen, g.num_edges());
}

TEST(BipartiteGraph, DegreesSumToEdgeCount) {
  const std::vector<LEdge> edges = {
      {0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}, {2, 0, 1.0}};
  const BipartiteGraph g = BipartiteGraph::from_edges(3, 2, edges);
  eid_t sum_a = 0, sum_b = 0;
  for (vid_t a = 0; a < g.num_a(); ++a) sum_a += g.degree_a(a);
  for (vid_t b = 0; b < g.num_b(); ++b) sum_b += g.degree_b(b);
  EXPECT_EQ(sum_a, g.num_edges());
  EXPECT_EQ(sum_b, g.num_edges());
  EXPECT_EQ(g.degree_a(0), 2);
  EXPECT_EQ(g.degree_b(1), 2);
}

TEST(BipartiteGraph, EdgeListRoundTrips) {
  const std::vector<LEdge> edges = {{1, 1, 0.5}, {0, 0, 0.75}};
  const BipartiteGraph g = BipartiteGraph::from_edges(2, 2, edges);
  const auto out = g.edge_list();
  const BipartiteGraph g2 = BipartiteGraph::from_edges(2, 2, out);
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g2.edge_a(e), g.edge_a(e));
    EXPECT_EQ(g2.edge_b(e), g.edge_b(e));
    EXPECT_EQ(g2.edge_weight(e), g.edge_weight(e));
  }
}

TEST(BipartiteGraph, WeightsSpanMatchesEdgeWeight) {
  const std::vector<LEdge> edges = {{0, 0, 0.5}, {0, 1, 0.25}};
  const BipartiteGraph g = BipartiteGraph::from_edges(1, 2, edges);
  const auto w = g.weights();
  ASSERT_EQ(static_cast<eid_t>(w.size()), g.num_edges());
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(w[e], g.edge_weight(e));
  }
}

// The sort-the-whole-list builder that the counting sort replaced: edges in
// (a, b) order with duplicates folded to their max weight.
std::vector<LEdge> reference_edges(std::vector<LEdge> edges) {
  std::sort(edges.begin(), edges.end(), [](const LEdge& x, const LEdge& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  std::vector<LEdge> unique;
  for (const auto& e : edges) {
    if (!unique.empty() && unique.back().a == e.a && unique.back().b == e.b) {
      unique.back().w = std::max(unique.back().w, e.w);
    } else {
      unique.push_back(e);
    }
  }
  return unique;
}

TEST(BipartiteGraph, CountingSortBuilderMatchesSortReference) {
  Xoshiro256 rng(77);
  for (const vid_t na : {1, 5, 300, 3000}) {
    const vid_t nb = na / 2 + 3;
    std::vector<LEdge> edges;
    for (int i = 0; i < 8 * na; ++i) {
      const LEdge e{static_cast<vid_t>(rng.uniform_int(na)),
                    static_cast<vid_t>(rng.uniform_int(std::min(nb, 12))),
                    rng.uniform(0.0, 1.0)};
      edges.push_back(e);
      // Same pair again with another weight, before or after the first.
      if (i % 4 == 0) edges.push_back(LEdge{e.a, e.b, rng.uniform(0.0, 1.0)});
      if (i % 9 == 0) std::swap(edges.back(), edges[edges.size() / 2]);
    }
    const BipartiteGraph g = BipartiteGraph::from_edges(na, nb, edges);
    const auto ref = reference_edges(edges);
    ASSERT_EQ(g.num_edges(), static_cast<eid_t>(ref.size())) << "na=" << na;
    for (eid_t e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(g.edge_a(e), ref[e].a) << e;
      ASSERT_EQ(g.edge_b(e), ref[e].b) << e;
      ASSERT_EQ(g.edge_weight(e), ref[e].w) << e;
    }
    for (vid_t a = 0; a < na; ++a) {
      for (eid_t e = g.row_begin(a); e < g.row_end(a); ++e) {
        ASSERT_EQ(g.edge_a(e), a);
      }
    }
    // CSC: each column lists its edges in increasing id.
    for (vid_t b = 0; b < nb; ++b) {
      for (eid_t k = g.col_begin(b); k < g.col_end(b); ++k) {
        const eid_t e = g.col_edge(k);
        ASSERT_EQ(g.edge_b(e), b);
        ASSERT_EQ(g.col_a(k), g.edge_a(e));
        if (k > g.col_begin(b)) {
          ASSERT_LT(g.col_edge(k - 1), e);
        }
      }
    }
  }
}

}  // namespace
}  // namespace netalign
