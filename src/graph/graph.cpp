#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/csr.hpp"
#include "util/parallel.hpp"

namespace netalign {

Graph Graph::from_edges(vid_t n,
                        std::span<const std::pair<vid_t, vid_t>> edges) {
  if (n < 0) throw std::invalid_argument("Graph::from_edges: negative n");
  // Counting sort of both orientations into rows, then a parallel per-row
  // sort and dedup: the same sorted adjacency as sorting the whole
  // directed edge list, in O(m) scatter plus sorts of single rows.
  Graph g;
  g.n_ = n;
  g.ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (auto [u, v] : edges) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::out_of_range("Graph::from_edges: vertex out of range");
    }
    if (u == v) continue;  // drop self loops
    ++g.ptr_[u + 1];
    ++g.ptr_[v + 1];
  }
  for (vid_t v = 0; v < n; ++v) g.ptr_[v + 1] += g.ptr_[v];
  g.adj_.resize(static_cast<std::size_t>(g.ptr_[n]));
  std::vector<eid_t> len(g.ptr_.begin(), g.ptr_.end() - 1);  // fill cursor
  for (auto [u, v] : edges) {
    if (u == v) continue;
    g.adj_[len[u]++] = v;
    g.adj_[len[v]++] = u;
  }
  fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (vid_t r = 0; r < n; ++r) {
      const auto first = g.adj_.begin() + g.ptr_[r];
      const auto last = g.adj_.begin() + g.ptr_[r + 1];
      std::sort(first, last);
      len[r] = std::unique(first, last) - first;
    }
  });
  compact_rows(g.ptr_, len, g.adj_);
  return g;
}

bool Graph::has_edge(vid_t u, vid_t v) const noexcept {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

vid_t Graph::max_degree() const noexcept {
  vid_t best = 0;
  for (vid_t v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

std::vector<std::pair<vid_t, vid_t>> Graph::edge_list() const {
  std::vector<std::pair<vid_t, vid_t>> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (vid_t u = 0; u < n_; ++u) {
    for (vid_t v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace netalign
