#include "graph/bipartite.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"
#include "util/parallel.hpp"

namespace netalign {

BipartiteGraph BipartiteGraph::from_edges(vid_t num_a, vid_t num_b,
                                          std::span<const LEdge> edges) {
  if (num_a < 0 || num_b < 0) {
    throw std::invalid_argument("BipartiteGraph: negative dimension");
  }
  // Counting sort into A rows, then a parallel per-row sort by B endpoint
  // that folds duplicates: the same CSR, and so the same edge ids, as
  // sorting the whole list by (a, b).
  BipartiteGraph g;
  g.na_ = num_a;
  g.nb_ = num_b;
  g.aptr_.assign(static_cast<std::size_t>(num_a) + 1, 0);
  for (const auto& e : edges) {
    if (e.a < 0 || e.a >= num_a || e.b < 0 || e.b >= num_b) {
      throw std::out_of_range("BipartiteGraph: edge endpoint out of range");
    }
    ++g.aptr_[e.a + 1];
  }
  for (vid_t a = 0; a < num_a; ++a) g.aptr_[a + 1] += g.aptr_[a];
  g.bcol_.resize(edges.size());
  g.w_.resize(edges.size());
  std::vector<eid_t> len(g.aptr_.begin(), g.aptr_.end() - 1);  // fill cursor
  for (const auto& e : edges) {
    const eid_t k = len[e.a]++;
    g.bcol_[k] = e.b;
    g.w_[k] = e.w;
  }
  fenced_parallel([&] {
    std::vector<std::pair<vid_t, weight_t>> row;
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (vid_t a = 0; a < num_a; ++a) {
      const eid_t lo = g.aptr_[a], hi = g.aptr_[a + 1];
      len[a] = hi - lo;
      const auto first = g.bcol_.begin() + lo, last = g.bcol_.begin() + hi;
      if (std::adjacent_find(first, last, std::greater_equal<>()) == last) {
        continue;  // already strictly ascending
      }
      row.clear();
      for (eid_t k = lo; k < hi; ++k) row.emplace_back(g.bcol_[k], g.w_[k]);
      std::sort(row.begin(), row.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      // Fold duplicates, keeping the max weight.
      eid_t out = lo;
      for (const auto& [b, w] : row) {
        if (out > lo && g.bcol_[out - 1] == b) {
          g.w_[out - 1] = std::max(g.w_[out - 1], w);
        } else {
          g.bcol_[out] = b;
          g.w_[out] = w;
          ++out;
        }
      }
      len[a] = out - lo;
    }
  });
  compact_rows(g.aptr_, len, g.bcol_, g.w_);
  g.arow_of_.resize(g.bcol_.size());
  for (vid_t a = 0; a < num_a; ++a) {
    std::fill(g.arow_of_.begin() + g.aptr_[a],
              g.arow_of_.begin() + g.aptr_[a + 1], a);
  }

  // Build the CSC view with edge-id backpointers.
  g.bptr_.assign(static_cast<std::size_t>(num_b) + 1, 0);
  for (const vid_t b : g.bcol_) g.bptr_[b + 1]++;
  for (vid_t b = 0; b < num_b; ++b) g.bptr_[b + 1] += g.bptr_[b];
  g.acol_.resize(g.bcol_.size());
  g.cedge_.resize(g.bcol_.size());
  std::vector<eid_t> cursor(g.bptr_.begin(), g.bptr_.end() - 1);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t b = g.bcol_[e];
    const eid_t pos = cursor[b]++;
    g.acol_[pos] = g.arow_of_[e];
    g.cedge_[pos] = e;
  }
  return g;
}

eid_t BipartiteGraph::find_edge(vid_t a, vid_t b) const noexcept {
  const auto first = bcol_.begin() + row_begin(a);
  const auto last = bcol_.begin() + row_end(a);
  const auto it = std::lower_bound(first, last, b);
  if (it == last || *it != b) return kInvalidEid;
  return static_cast<eid_t>(it - bcol_.begin());
}

std::vector<LEdge> BipartiteGraph::edge_list() const {
  std::vector<LEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (eid_t e = 0; e < num_edges(); ++e) {
    edges.push_back(LEdge{edge_a(e), edge_b(e), edge_weight(e)});
  }
  return edges;
}

}  // namespace netalign
