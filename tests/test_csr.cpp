#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace netalign {
namespace {

std::vector<CooEntry> random_entries(vid_t n, int count, Xoshiro256& rng,
                                     bool allow_dups = false) {
  std::vector<CooEntry> entries;
  std::vector<std::vector<bool>> used(n, std::vector<bool>(n, false));
  while (static_cast<int>(entries.size()) < count) {
    const auto r = static_cast<vid_t>(rng.uniform_int(n));
    const auto c = static_cast<vid_t>(rng.uniform_int(n));
    if (!allow_dups && used[r][c]) continue;
    used[r][c] = true;
    entries.push_back(CooEntry{r, c, rng.uniform(0.1, 1.0)});
  }
  return entries;
}

TEST(CsrMatrix, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::from_coo(3, 4, {});
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.num_cols(), 4);
  EXPECT_EQ(m.num_nonzeros(), 0);
  EXPECT_EQ(m.find(0, 0), kInvalidEid);
}

TEST(CsrMatrix, FromCooSortsColumnsWithinRows) {
  const std::vector<CooEntry> entries = {
      {0, 2, 1.0}, {0, 0, 2.0}, {1, 1, 3.0}, {0, 1, 4.0}};
  const CsrMatrix m = CsrMatrix::from_coo(2, 3, entries);
  ASSERT_EQ(m.num_nonzeros(), 4);
  const auto col = m.col_idx();
  EXPECT_EQ(col[0], 0);
  EXPECT_EQ(col[1], 1);
  EXPECT_EQ(col[2], 2);
  EXPECT_EQ(m.values()[0], 2.0);
  EXPECT_EQ(m.values()[1], 4.0);
  EXPECT_EQ(m.values()[2], 1.0);
}

TEST(CsrMatrix, DuplicateSumPolicy) {
  const std::vector<CooEntry> entries = {{0, 1, 2.0}, {0, 1, 3.0}};
  const CsrMatrix m =
      CsrMatrix::from_coo(1, 2, entries, DuplicatePolicy::kSum);
  ASSERT_EQ(m.num_nonzeros(), 1);
  EXPECT_EQ(m.values()[0], 5.0);
}

TEST(CsrMatrix, DuplicateMaxPolicy) {
  const std::vector<CooEntry> entries = {{0, 1, 2.0}, {0, 1, 3.0}};
  const CsrMatrix m =
      CsrMatrix::from_coo(1, 2, entries, DuplicatePolicy::kMax);
  ASSERT_EQ(m.num_nonzeros(), 1);
  EXPECT_EQ(m.values()[0], 3.0);
}

TEST(CsrMatrix, DuplicateErrorPolicyThrows) {
  const std::vector<CooEntry> entries = {{0, 1, 2.0}, {0, 1, 3.0}};
  EXPECT_THROW(CsrMatrix::from_coo(1, 2, entries, DuplicatePolicy::kError),
               std::invalid_argument);
}

TEST(CsrMatrix, OutOfRangeEntryThrows) {
  const std::vector<CooEntry> bad = {{0, 5, 1.0}};
  EXPECT_THROW(CsrMatrix::from_coo(2, 2, bad), std::out_of_range);
}

TEST(CsrMatrix, FindLocatesEntries) {
  const std::vector<CooEntry> entries = {{0, 2, 1.0}, {1, 0, 2.0}};
  const CsrMatrix m = CsrMatrix::from_coo(2, 3, entries);
  EXPECT_NE(m.find(0, 2), kInvalidEid);
  EXPECT_NE(m.find(1, 0), kInvalidEid);
  EXPECT_EQ(m.find(0, 0), kInvalidEid);
  EXPECT_EQ(m.find(1, 2), kInvalidEid);
}

TEST(CsrMatrix, StructuralFromCooSetsOnes) {
  const std::vector<CooEntry> entries = {{0, 1, 9.0}, {1, 0, -4.0}};
  const CsrMatrix m = CsrMatrix::structural_from_coo(2, 2, entries);
  for (const auto v : m.values()) EXPECT_EQ(v, 1.0);
}

TEST(CsrMatrix, TransposeMatchesDense) {
  Xoshiro256 rng(5);
  const auto entries = random_entries(6, 14, rng);
  const CsrMatrix m = CsrMatrix::from_coo(6, 6, entries);
  const CsrMatrix t = m.transpose();
  const auto dm = m.to_dense();
  const auto dt = t.to_dense();
  for (vid_t r = 0; r < 6; ++r) {
    for (vid_t c = 0; c < 6; ++c) {
      EXPECT_EQ(dm[r][c], dt[c][r]);
    }
  }
}

TEST(CsrMatrix, StructuralSymmetryDetection) {
  const std::vector<CooEntry> sym = {{0, 1, 1.0}, {1, 0, 5.0}, {2, 2, 1.0}};
  EXPECT_TRUE(CsrMatrix::from_coo(3, 3, sym).is_structurally_symmetric());
  const std::vector<CooEntry> asym = {{0, 1, 1.0}};
  EXPECT_FALSE(CsrMatrix::from_coo(3, 3, asym).is_structurally_symmetric());
  // Non-square is never symmetric.
  EXPECT_FALSE(CsrMatrix::from_coo(2, 3, {}).is_structurally_symmetric());
}

TEST(CsrMatrix, SymmetricTransposePermutationGathersTranspose) {
  // Random symmetric pattern with asymmetric values: the permutation must
  // reproduce the explicitly computed transpose values (the paper's
  // permutation trick, Section IV-A).
  Xoshiro256 rng(17);
  std::vector<CooEntry> entries;
  for (int i = 0; i < 30; ++i) {
    const auto r = static_cast<vid_t>(rng.uniform_int(8));
    const auto c = static_cast<vid_t>(rng.uniform_int(8));
    entries.push_back(CooEntry{r, c, rng.uniform(0.0, 1.0)});
    entries.push_back(CooEntry{c, r, rng.uniform(0.0, 1.0)});
  }
  const CsrMatrix m = CsrMatrix::from_coo(8, 8, entries);
  ASSERT_TRUE(m.is_structurally_symmetric());
  const auto perm = m.symmetric_transpose_permutation();
  const CsrMatrix t = m.transpose();
  ASSERT_EQ(t.num_nonzeros(), m.num_nonzeros());
  for (eid_t k = 0; k < m.num_nonzeros(); ++k) {
    EXPECT_EQ(m.values()[perm[k]], t.values()[k]);
  }
}

TEST(CsrMatrix, SymmetricPermutationRejectsAsymmetric) {
  const std::vector<CooEntry> asym = {{0, 1, 1.0}};
  const CsrMatrix m = CsrMatrix::from_coo(2, 2, asym);
  EXPECT_THROW(m.symmetric_transpose_permutation(), std::logic_error);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  Xoshiro256 rng(23);
  const auto entries = random_entries(7, 20, rng);
  const CsrMatrix m = CsrMatrix::from_coo(7, 7, entries);
  std::vector<weight_t> x(7), y(7);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  m.multiply(x, y);
  const auto dense = m.to_dense();
  for (vid_t r = 0; r < 7; ++r) {
    weight_t expected = 0.0;
    for (vid_t c = 0; c < 7; ++c) expected += dense[r][c] * x[c];
    EXPECT_NEAR(y[r], expected, 1e-12);
  }
}

TEST(CsrMatrix, MultiplySizeMismatchThrows) {
  const CsrMatrix m = CsrMatrix::from_coo(2, 3, {});
  std::vector<weight_t> x(2), y(2);
  EXPECT_THROW(m.multiply(x, y), std::invalid_argument);
}

TEST(CsrMatrix, RowSums) {
  const std::vector<CooEntry> entries = {{0, 0, 1.0}, {0, 1, 2.0}, {2, 0, 4.0}};
  const CsrMatrix m = CsrMatrix::from_coo(3, 2, entries);
  std::vector<weight_t> y(3);
  m.row_sums(y);
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], 0.0);
  EXPECT_EQ(y[2], 4.0);
}

TEST(CsrMatrix, FromCsrArraysRoundTrip) {
  std::vector<eid_t> ptr = {0, 2, 3};
  std::vector<vid_t> col = {0, 2, 1};
  std::vector<weight_t> val = {1.0, 2.0, 3.0};
  const CsrMatrix m = CsrMatrix::from_csr_arrays(2, 3, ptr, col, val);
  EXPECT_EQ(m.num_nonzeros(), 3);
  EXPECT_NE(m.find(0, 2), kInvalidEid);
}

TEST(CsrMatrix, FromCsrArraysEmptyValBecomesOnes) {
  std::vector<eid_t> ptr = {0, 1};
  std::vector<vid_t> col = {0};
  const CsrMatrix m = CsrMatrix::from_csr_arrays(1, 1, ptr, col, {});
  EXPECT_EQ(m.values()[0], 1.0);
}

TEST(CsrMatrix, FromCsrArraysValidatesInput) {
  EXPECT_THROW(
      CsrMatrix::from_csr_arrays(2, 2, {0, 1}, {0}, {}),  // short ptr
      std::invalid_argument);
  EXPECT_THROW(
      CsrMatrix::from_csr_arrays(1, 2, {0, 2}, {1, 0}, {}),  // unsorted
      std::invalid_argument);
  EXPECT_THROW(
      CsrMatrix::from_csr_arrays(1, 1, {0, 1}, {3}, {}),  // out of range
      std::invalid_argument);
}

// Random symmetric pattern: every entry and its mirror, some diagonal.
std::vector<CooEntry> random_symmetric(vid_t n, int pairs, Xoshiro256& rng) {
  std::vector<CooEntry> entries;
  for (int i = 0; i < pairs; ++i) {
    const auto r = static_cast<vid_t>(rng.uniform_int(n));
    const auto c = static_cast<vid_t>(rng.uniform_int(n));
    entries.push_back(CooEntry{r, c, rng.uniform(0.0, 1.0)});
    entries.push_back(CooEntry{c, r, rng.uniform(0.0, 1.0)});
  }
  return entries;
}

TEST(CsrMatrix, TransposePermutationMatchesLowerBoundReference) {
  Xoshiro256 rng(5);
  for (const vid_t n : {1, 2, 9, 200, 2500}) {
    const CsrMatrix m =
        CsrMatrix::from_coo(n, n, random_symmetric(n, 5 * n, rng));
    ASSERT_TRUE(m.is_structurally_symmetric());
    const auto perm = m.symmetric_transpose_permutation();
    ASSERT_EQ(static_cast<eid_t>(perm.size()), m.num_nonzeros());
    const auto col = m.col_idx();
    for (vid_t r = 0; r < n; ++r) {
      for (eid_t k = m.row_begin(r); k < m.row_end(r); ++k) {
        const auto first = col.begin() + m.row_begin(col[k]);
        const auto last = col.begin() + m.row_end(col[k]);
        const eid_t want = std::lower_bound(first, last, r) - col.begin();
        ASSERT_EQ(perm[k], want) << "n=" << n << " entry " << k;
      }
    }
  }
}

TEST(CsrMatrix, TransposePermutationRejectsEveryMissingMirror) {
  Xoshiro256 rng(8);
  const vid_t n = 40;
  const auto sym = random_symmetric(n, 150, rng);
  const CsrMatrix base = CsrMatrix::from_coo(n, n, sym, DuplicatePolicy::kMax);
  // Drop each off-diagonal entry in turn: its mirror is then unmatched,
  // wherever it sits in its row (first, middle or last slot).
  for (vid_t r = 0; r < n; ++r) {
    for (eid_t k = base.row_begin(r); k < base.row_end(r); ++k) {
      const vid_t c = base.col_idx()[k];
      if (c == r) continue;
      std::vector<CooEntry> asym;
      for (const auto& e : sym) {
        if (e.row != r || e.col != c) asym.push_back(e);
      }
      const CsrMatrix m = CsrMatrix::from_coo(n, n, asym, DuplicatePolicy::kMax);
      ASSERT_FALSE(m.is_structurally_symmetric()) << r << "," << c;
      ASSERT_THROW((void)m.symmetric_transpose_permutation(), std::logic_error);
    }
  }
}

TEST(CsrMatrix, SymmetryCheckMatchesMirrorLookup) {
  // Asymmetric patterns whose row and column counts can still balance: a
  // symmetric base plus a directed cycle. Reference: look up every mirror.
  Xoshiro256 rng(13);
  const vid_t n = 30;
  for (int trial = 0; trial < 40; ++trial) {
    auto entries = random_symmetric(n, 60, rng);
    const std::size_t len = 3 + static_cast<std::size_t>(trial % 5);
    std::vector<vid_t> cycle;
    while (cycle.size() < len) {
      const auto v = static_cast<vid_t>(rng.uniform_int(n));
      if (std::find(cycle.begin(), cycle.end(), v) == cycle.end()) {
        cycle.push_back(v);
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      entries.push_back(CooEntry{cycle[i], cycle[(i + 1) % len], 1.0});
    }
    const CsrMatrix m = CsrMatrix::from_coo(n, n, entries);
    bool want = true;
    for (vid_t r = 0; r < n; ++r) {
      for (eid_t k = m.row_begin(r); k < m.row_end(r); ++k) {
        if (m.find(m.col_idx()[k], r) == kInvalidEid) want = false;
      }
    }
    ASSERT_EQ(m.is_structurally_symmetric(), want) << "trial " << trial;
    if (!want) {
      ASSERT_THROW((void)m.symmetric_transpose_permutation(),
                   std::logic_error);
    }
  }
}

}  // namespace
}  // namespace netalign
