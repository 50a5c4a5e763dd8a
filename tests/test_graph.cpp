#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace netalign {
namespace {

using Edges = std::vector<std::pair<vid_t, vid_t>>;

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, BuildsUndirectedAdjacency) {
  const Edges edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, DropsSelfLoops) {
  const Edges edges = {{0, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, CollapsesDuplicatesInBothOrientations) {
  const Edges edges = {{0, 1}, {1, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, NeighborsAreSorted) {
  const Edges edges = {{2, 5}, {2, 1}, {2, 3}};
  const Graph g = Graph::from_edges(6, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 3);
  EXPECT_EQ(nbrs[2], 5);
}

TEST(Graph, OutOfRangeVertexThrows) {
  const Edges edges = {{0, 7}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::out_of_range);
}

TEST(Graph, MaxDegree) {
  const Edges edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(Graph, EdgeListRoundTrips) {
  const Edges edges = {{3, 1}, {0, 2}, {1, 2}};
  const Graph g = Graph::from_edges(4, edges);
  const auto out = g.edge_list();
  ASSERT_EQ(out.size(), 3u);
  // Canonical u < v, lexicographic.
  EXPECT_EQ(out[0], (std::pair<vid_t, vid_t>{0, 2}));
  EXPECT_EQ(out[1], (std::pair<vid_t, vid_t>{1, 2}));
  EXPECT_EQ(out[2], (std::pair<vid_t, vid_t>{1, 3}));
  const Graph g2 = Graph::from_edges(4, out);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (const auto& [u, v] : out) EXPECT_TRUE(g2.has_edge(u, v));
}

// The sort-the-whole-list builder that the counting sort replaced: the
// reference adjacency for the parity test below.
std::vector<std::vector<vid_t>> reference_adjacency(vid_t n,
                                                    const Edges& edges) {
  Edges dir;
  for (auto [u, v] : edges) {
    if (u == v) continue;
    dir.emplace_back(u, v);
    dir.emplace_back(v, u);
  }
  std::sort(dir.begin(), dir.end());
  dir.erase(std::unique(dir.begin(), dir.end()), dir.end());
  std::vector<std::vector<vid_t>> adj(static_cast<std::size_t>(n));
  for (auto [u, v] : dir) adj[u].push_back(v);
  return adj;
}

TEST(Graph, CountingSortBuilderMatchesSortReference) {
  Xoshiro256 rng(2024);
  // Several OpenMP chunks of rows, dense enough for many duplicates in
  // both orientations, plus self loops.
  for (const vid_t n : {1, 7, 300, 4000}) {
    Edges edges;
    const int m = 6 * n;
    for (int i = 0; i < m; ++i) {
      const auto u = static_cast<vid_t>(rng.uniform_int(n));
      const auto v = static_cast<vid_t>(rng.uniform_int(std::min(n, u + 8)));
      edges.emplace_back(u, v);
      if (i % 5 == 0) edges.emplace_back(v, u);
      if (i % 17 == 0) edges.emplace_back(u, u);
    }
    const Graph g = Graph::from_edges(n, edges);
    const auto ref = reference_adjacency(n, edges);
    eid_t total = 0;
    for (vid_t v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), ref[v].begin(),
                             ref[v].end()))
          << "n=" << n << " vertex " << v;
      total += static_cast<eid_t>(ref[v].size());
    }
    EXPECT_EQ(g.num_edges(), total / 2);
  }
}

}  // namespace
}  // namespace netalign
