// Equivalence gate for the implicit squares backend (the tier-1 CTest
// behind the bit-identity claim in docs/ARCHITECTURE.md "Memory model &
// implicit squares"): for a fixed problem, the implicit backend must
// present exactly the explicit CSR's pattern -- same row pointers, same
// ascending columns, same transpose offsets -- and every solver must
// produce a bit-identical matching and objective over either backend.
#include "netalign/squares_implicit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "helpers.hpp"
#include "netalign/belief_prop.hpp"
#include "netalign/isorank.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/squares_view.hpp"
#include "netalign/synthetic.hpp"

namespace netalign {
namespace {

/// Perturbed near-isomorphic pair (the paper's Section VI-A family).
NetAlignProblem power_law_problem(std::uint64_t seed, vid_t n = 80) {
  PowerLawInstanceOptions opt;
  opt.n = n;
  opt.seed = seed;
  opt.expected_degree = 3.0;
  return make_power_law_instance(opt).problem;
}

/// Hub-heavy Chung-Lu pair: a skewed expected-degree sequence gives a few
/// very wide rows of S next to many narrow ones, which is exactly the
/// shape that stresses the nnz-balanced transpose chunking.
NetAlignProblem chung_lu_problem(std::uint64_t seed, vid_t n = 90) {
  Xoshiro256 rng(seed);
  std::vector<double> degrees(static_cast<std::size_t>(n), 1.5);
  for (int hub = 0; hub < 4; ++hub) {
    degrees[static_cast<std::size_t>(rng.uniform_int(n))] =
        static_cast<double>(n) / 3.0;
  }
  NetAlignProblem p;
  p.A = chung_lu(degrees, rng);
  p.B = add_random_edges(p.A, 0.02, rng);
  p.L = testing::random_bipartite(n, n, 5 * n, rng);
  p.name = "chung-lu-hubs";
  return p;
}

/// Sparse L over sparse graphs: most rows of S are empty.
NetAlignProblem sparse_problem(std::uint64_t seed, vid_t n = 70) {
  Xoshiro256 rng(seed);
  NetAlignProblem p;
  p.A = erdos_renyi(n, 1.5 / static_cast<double>(n), rng);
  p.B = erdos_renyi(n, 1.5 / static_cast<double>(n), rng);
  p.L = testing::random_bipartite(n, n, 2 * n, rng);
  p.name = "sparse-empty-rows";
  return p;
}

/// All instances the equivalence sweep covers.
std::vector<NetAlignProblem> sweep_instances() {
  std::vector<NetAlignProblem> out;
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    out.push_back(power_law_problem(seed));
    out.push_back(chung_lu_problem(seed));
    out.push_back(sparse_problem(seed));
  }
  return out;
}

/// Row-by-row pattern comparison: columns via a serial lease, transpose
/// offsets via the chunk protocol, both against the explicit CSR.
void expect_identical_enumeration(const NetAlignProblem& p) {
  SCOPED_TRACE(p.name);
  const SquaresMatrix S = SquaresMatrix::build(p);
  const auto imp = ImplicitSquares::build(p);
  ASSERT_EQ(imp->num_rows(), S.num_rows());
  ASSERT_EQ(imp->num_nonzeros(), S.num_nonzeros());
  const auto ptr = S.pattern().row_ptr();
  const auto scol = S.pattern().col_idx();
  const auto perm = S.trans_perm();
  for (vid_t e = 0; e < S.num_rows(); ++e) {
    ASSERT_EQ(imp->row_begin(e), ptr[e]);
    ASSERT_EQ(imp->row_end(e), ptr[e + 1]);
  }
  {
    ImplicitSquares::Lease lease(*imp);
    for (vid_t e = 0; e < S.num_rows(); ++e) {
      const auto cols = lease.cols(e);
      const auto expected = scol.subspan(
          static_cast<std::size_t>(ptr[e]),
          static_cast<std::size_t>(ptr[e + 1] - ptr[e]));
      ASSERT_EQ(cols.size(), expected.size()) << "row " << e;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        ASSERT_EQ(cols[i], expected[i]) << "row " << e << " nz " << i;
      }
    }
  }
  {
    ImplicitSquares::Lease lease(*imp);
    for (std::int64_t c = 0; c < imp->num_trans_chunks(); ++c) {
      lease.begin_trans_chunk(c);
      for (vid_t e = imp->trans_chunk_begin(c); e < imp->trans_chunk_end(c);
           ++e) {
        const auto [cols, tks] = lease.row_trans(e);
        ASSERT_EQ(tks.size(),
                  static_cast<std::size_t>(ptr[e + 1] - ptr[e]));
        for (std::size_t i = 0; i < tks.size(); ++i) {
          ASSERT_EQ(tks[i], perm[static_cast<std::size_t>(ptr[e]) + i])
              << "row " << e << " nz " << i;
          // The transpose offset really is the mirrored nonzero.
          ASSERT_EQ(scol[static_cast<std::size_t>(tks[i])], e);
        }
      }
    }
  }
}

TEST(ImplicitSquares, RowEnumerationMatchesExplicitAcrossInstances) {
  for (const auto& p : sweep_instances()) expect_identical_enumeration(p);
}

TEST(ImplicitSquares, HandlesAllRowsEmpty) {
  // No edges in A means no squares at all: every row enumerates empty.
  Xoshiro256 rng(5);
  NetAlignProblem p;
  p.A = Graph::from_edges(40, {});
  p.B = erdos_renyi(40, 0.1, rng);
  p.L = testing::random_bipartite(40, 40, 80, rng);
  p.name = "no-squares";
  const SquaresMatrix S = SquaresMatrix::build(p);
  ASSERT_EQ(S.num_nonzeros(), 0);
  expect_identical_enumeration(p);
}

TEST(ImplicitSquares, CursorCachesLastRow) {
  const auto p = power_law_problem(21);
  const auto imp = ImplicitSquares::build(p);
  vid_t wide = 0;
  for (vid_t e = 0; e < imp->num_rows(); ++e) {
    if (imp->row_end(e) - imp->row_begin(e) >
        imp->row_end(wide) - imp->row_begin(wide)) {
      wide = e;
    }
  }
  ASSERT_GT(imp->row_end(wide), imp->row_begin(wide));
  // The build's transpose base-count pass enumerates rows through the
  // same pool, so compare stats deltas, not absolutes. The pooled cursor
  // may still cache `wide` from that pass (which thread enumerated it
  // last is a scheduling accident), so move it to another row first.
  ASSERT_GT(imp->num_rows(), 1);
  ImplicitSquares::Stats before;
  {
    ImplicitSquares::Lease lease(*imp);
    (void)lease.cols(wide == 0 ? 1 : 0);
    before = imp->stats();
    const auto first = lease.cols(wide);
    const std::vector<vid_t> copy(first.begin(), first.end());
    const auto again = lease.cols(wide);  // served from the cached row
    ASSERT_EQ(again.size(), copy.size());
    for (std::size_t i = 0; i < copy.size(); ++i) {
      EXPECT_EQ(again[i], copy[i]);
    }
  }
  const ImplicitSquares::Stats stats = imp->stats();
  EXPECT_EQ(stats.rows_enumerated - before.rows_enumerated, 1);
  EXPECT_EQ(stats.cursor_reuse_hits - before.cursor_reuse_hits, 1);
}

TEST(ImplicitSquares, TransposeAccessRequiresSupport) {
  const auto p = power_law_problem(22);
  ImplicitSquares::BuildOptions opt;
  opt.transpose_support = false;
  const auto imp = ImplicitSquares::build(p, opt);
  EXPECT_FALSE(imp->transpose_support());
  EXPECT_EQ(imp->num_trans_chunks(), 0);
  ImplicitSquares::Lease lease(*imp);
  EXPECT_NO_THROW((void)lease.cols(0));
  EXPECT_THROW(lease.begin_trans_chunk(0), std::logic_error);
}

TEST(ImplicitSquares, ViewSweepsMatchExplicit) {
  // The SquaresView parallel sweeps (the solver-facing API) agree with
  // the explicit backend under real OpenMP scheduling, including the
  // implicit transpose path's chunk grid.
  const auto p = chung_lu_problem(31);
  const SquaresMatrix S = SquaresMatrix::build(p);
  const auto imp = ImplicitSquares::build(p);
  const SquaresView ve(S);
  const SquaresView vi(*imp);
  ASSERT_TRUE(vi.is_implicit());
  ASSERT_EQ(ve.num_nonzeros(), vi.num_nonzeros());
  ASSERT_EQ(ve.max_row_width(), vi.max_row_width());

  const auto nnz = static_cast<std::size_t>(S.num_nonzeros());
  std::vector<vid_t> cols_e(nnz), cols_i(nnz);
  ve.par_rows([&](vid_t, eid_t base, std::span<const vid_t> cols) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      cols_e[static_cast<std::size_t>(base) + i] = cols[i];
    }
  });
  vi.par_rows([&](vid_t, eid_t base, std::span<const vid_t> cols) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      cols_i[static_cast<std::size_t>(base) + i] = cols[i];
    }
  });
  EXPECT_EQ(cols_e, cols_i);

  std::vector<eid_t> tks_e(nnz), tks_i(nnz);
  ve.par_rows_trans([&](vid_t, eid_t base, std::span<const vid_t>,
                        std::span<const eid_t> tks) {
    for (std::size_t i = 0; i < tks.size(); ++i) {
      tks_e[static_cast<std::size_t>(base) + i] = tks[i];
    }
  });
  vi.par_rows_trans([&](vid_t, eid_t base, std::span<const vid_t>,
                        std::span<const eid_t> tks) {
    for (std::size_t i = 0; i < tks.size(); ++i) {
      tks_i[static_cast<std::size_t>(base) + i] = tks[i];
    }
  });
  EXPECT_EQ(tks_e, tks_i);
}

TEST(ImplicitSquares, AutoModeSelectsByBudget) {
  // nnz(S) is about 5x |E_L| here, so with two transpose chunks the
  // implicit structure is the smaller one. The chunk count is pinned: the
  // default scales with the thread count, and so does the implicit size.
  const auto p = power_law_problem(41);
  SquaresBackendOptions opt;
  opt.mode = SquaresMode::kAuto;
  opt.num_chunks = 2;
  opt.budget_bytes = std::uint64_t{1} << 40;  // far above any estimate
  const SquaresBackend roomy = build_squares_backend(p, opt);
  EXPECT_FALSE(roomy.is_implicit());
  EXPECT_EQ(roomy.mode_name(), "explicit");
  opt.budget_bytes = 1;  // below any non-empty estimate
  const SquaresBackend tight = build_squares_backend(p, opt);
  EXPECT_TRUE(tight.is_implicit());
  EXPECT_EQ(tight.mode_name(), "implicit");
  EXPECT_EQ(roomy.nnz, tight.nnz);
  EXPECT_EQ(roomy.explicit_bytes, tight.explicit_bytes);
  EXPECT_GT(tight.explicit_bytes, 0u);
  EXPECT_EQ(tight.view().num_nonzeros(), roomy.view().num_nonzeros());
  ImplicitSquares::BuildOptions bo;
  bo.num_chunks = opt.num_chunks;
  EXPECT_EQ(ImplicitSquares::estimate_structure_bytes(squares_row_ptr(p), bo),
            tight.structure_bytes());
  EXPECT_LT(tight.structure_bytes(), tight.explicit_bytes);

  // nnz(S) < |E_L|: the chunk tables alone (|E_L| entries per chunk)
  // outweigh the explicit CSR, so over budget auto still keeps explicit.
  const auto sparse = sparse_problem(41);
  const auto sparse_ptr = squares_row_ptr(sparse);
  ASSERT_LT(sparse_ptr.back(), sparse.L.num_edges());
  opt.num_chunks = 1;
  bo.num_chunks = 1;
  const SquaresBackend kept = build_squares_backend(sparse, opt);
  EXPECT_FALSE(kept.is_implicit());
  EXPECT_GT(kept.explicit_bytes, opt.budget_bytes);
  EXPECT_GE(ImplicitSquares::estimate_structure_bytes(sparse_ptr, bo),
            kept.explicit_bytes);
}

TEST(ImplicitSquares, SquaresModeStringsRoundTrip) {
  EXPECT_EQ(squares_mode_from_string("explicit"), SquaresMode::kExplicit);
  EXPECT_EQ(squares_mode_from_string("implicit"), SquaresMode::kImplicit);
  EXPECT_EQ(squares_mode_from_string("auto"), SquaresMode::kAuto);
  EXPECT_EQ(to_string(SquaresMode::kImplicit), "implicit");
  EXPECT_THROW((void)squares_mode_from_string("eager"), std::invalid_argument);
}

/// Solver runs over both backends must agree bit-for-bit: same matching
/// vector, same objective down to the last ulp.
void expect_bit_identical_solvers(const NetAlignProblem& p) {
  SCOPED_TRACE(p.name);
  const SquaresMatrix S = SquaresMatrix::build(p);
  const auto imp = ImplicitSquares::build(p);

  {
    BeliefPropOptions opt;
    opt.max_iterations = 8;
    opt.record_history = false;
    const AlignResult a = belief_prop_align(p, S, opt);
    const AlignResult b = belief_prop_align(p, *imp, opt);
    EXPECT_EQ(a.matching.mate_a, b.matching.mate_a) << "bp";
    EXPECT_EQ(a.value.objective, b.value.objective) << "bp";
    EXPECT_EQ(a.iterations_completed, b.iterations_completed) << "bp";
  }
  {
    KlauMrOptions opt;
    opt.max_iterations = 8;
    opt.record_history = false;
    const AlignResult a = klau_mr_align(p, S, opt);
    const AlignResult b = klau_mr_align(p, *imp, opt);
    EXPECT_EQ(a.matching.mate_a, b.matching.mate_a) << "mr";
    EXPECT_EQ(a.value.objective, b.value.objective) << "mr";
    EXPECT_EQ(a.best_upper_bound, b.best_upper_bound) << "mr";
  }
  {
    IsoRankOptions opt;
    opt.max_iterations = 20;
    opt.record_history = false;
    const AlignResult a = isorank_align(p, S, opt);
    const AlignResult b = isorank_align(p, *imp, opt);
    EXPECT_EQ(a.matching.mate_a, b.matching.mate_a) << "isorank";
    EXPECT_EQ(a.value.objective, b.value.objective) << "isorank";
  }
}

TEST(ImplicitSquares, SolverMatchingsBitIdenticalAcrossBackends) {
  for (const auto& p : sweep_instances()) expect_bit_identical_solvers(p);
}

}  // namespace
}  // namespace netalign
