#include "netalign/squares.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace netalign {

std::vector<eid_t> squares_row_ptr(const NetAlignProblem& p) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("squares_row_ptr: inconsistent problem");
  }
  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();

  // For edge e = (i, i'), a square with edge f = (j, j') exists iff j ~ i
  // in A, j' ~ i' in B and (j, j') is in L. Instead of probing
  // L.find_edge(j, j') for every (j, j') pair -- deg_A(i) * deg_B(i') *
  // log(deg_L) per edge -- each thread keeps an epoch-stamped mark over
  // V_B: stamp the B-neighborhood of i' once, then scan each L-row of a
  // j ~ i and test membership in O(1). Work per edge drops to
  // deg_B(i') + sum_j deg_L(j), and the emitted squares arrive ordered by
  // f for free (A.neighbors and L rows are sorted, edge ids are row-major).
  //
  // The mark arrays are per-thread, allocated inside the parallel region
  // before the worksharing loop; epochs replace clearing between edges.
  std::vector<eid_t> ptr(static_cast<std::size_t>(m) + 1, 0);
  fenced_parallel([&] {
    std::vector<vid_t> mark(static_cast<std::size_t>(L.num_b()), 0);
    vid_t epoch = 0;
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (eid_t e = 0; e < m; ++e) {
      const vid_t i = L.edge_a(e);
      const vid_t ip = L.edge_b(e);
      ++epoch;
      for (const vid_t jp : p.B.neighbors(ip)) mark[jp] = epoch;
      eid_t count = 0;
      for (const vid_t j : p.A.neighbors(i)) {
        for (eid_t f = L.row_begin(j); f < L.row_end(j); ++f) {
          if (mark[L.edge_b(f)] == epoch) ++count;
        }
      }
      ptr[e + 1] = count;
    }
  });
  for (eid_t e = 0; e < m; ++e) ptr[e + 1] += ptr[e];
  return ptr;
}

std::uint64_t explicit_squares_bytes(std::span<const eid_t> ptr) {
  if (ptr.empty()) return 0;
  const auto nnz = static_cast<std::uint64_t>(ptr.back());
  // col ids + transpose permutation per nonzero, plus the pointer array.
  return nnz * (sizeof(vid_t) + sizeof(eid_t)) +
         static_cast<std::uint64_t>(ptr.size()) * sizeof(eid_t);
}

SquaresMatrix SquaresMatrix::build(const NetAlignProblem& p) {
  return build(p, squares_row_ptr(p));
}

SquaresMatrix SquaresMatrix::build(const NetAlignProblem& p,
                                   std::vector<eid_t> ptr) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("SquaresMatrix::build: inconsistent problem");
  }
  const BipartiteGraph& L = p.L;
  const eid_t m = L.num_edges();
  const auto nrows = static_cast<vid_t>(m);
  if (ptr.size() != static_cast<std::size_t>(m) + 1) {
    throw std::invalid_argument("SquaresMatrix::build: row-ptr size mismatch");
  }

  // Fill pass. Rows come out already sorted by column id (required by the
  // cursor walk behind the transpose permutation); the is_sorted
  // guard keeps that invariant checkable without paying for a sort.
  std::vector<vid_t> col(static_cast<std::size_t>(ptr[m]));
  fenced_parallel([&] {
    std::vector<vid_t> mark(static_cast<std::size_t>(L.num_b()), 0);
    vid_t epoch = 0;
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (eid_t e = 0; e < m; ++e) {
      const vid_t i = L.edge_a(e);
      const vid_t ip = L.edge_b(e);
      ++epoch;
      for (const vid_t jp : p.B.neighbors(ip)) mark[jp] = epoch;
      eid_t pos = ptr[e];
      for (const vid_t j : p.A.neighbors(i)) {
        for (eid_t f = L.row_begin(j); f < L.row_end(j); ++f) {
          if (mark[L.edge_b(f)] == epoch) col[pos++] = static_cast<vid_t>(f);
        }
      }
      if (!std::is_sorted(col.begin() + ptr[e], col.begin() + ptr[e + 1])) {
        std::sort(col.begin() + ptr[e], col.begin() + ptr[e + 1]);
      }
    }
  });

  SquaresMatrix sq;
  sq.s_ = CsrMatrix::from_csr_arrays(nrows, nrows, std::move(ptr),
                                     std::move(col), {});
  sq.trans_perm_ = sq.s_.symmetric_transpose_permutation();
  return sq;
}

}  // namespace netalign
