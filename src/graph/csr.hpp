// Compressed-sparse-row matrix substrate.
//
// Everything iterative in the alignment methods runs over fixed-structure
// sparse matrices (paper Section IV-A): the squares matrix S, the Lagrange
// multipliers U (same pattern as S), and the BP message matrix S^(k) (same
// pattern again). Because the patterns never change, the transpose of a
// structurally symmetric matrix shares the row-pointer and column-index
// arrays and differs only by a permutation of the value array. We compute
// that permutation once (`symmetric_transpose_permutation`) and afterwards
// every transpose access is a gather -- the paper's "permutation trick".
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace netalign {

/// One coordinate-format entry used while assembling a matrix.
struct CooEntry {
  vid_t row = 0;
  vid_t col = 0;
  weight_t value = 0.0;
};

/// How from_coo combines duplicate (row, col) entries.
enum class DuplicatePolicy {
  kSum,   ///< add values together
  kMax,   ///< keep the largest value
  kError  ///< throw std::invalid_argument
};

/// Closes the gaps a per-row dedup leaves in CSR arrays: row r keeps the
/// first len[r] entries of each array, rows slide down in order, and ptr
/// becomes the new prefix sums. Arrays shrink to fit; when no row lost an
/// entry nothing moves.
template <typename... Arrays>
void compact_rows(std::vector<eid_t>& ptr, std::span<const eid_t> len,
                  Arrays&... arrays) {
  const std::size_t nrows = ptr.size() - 1;
  eid_t out = 0;
  for (std::size_t r = 0; r < nrows; ++r) {
    const eid_t lo = ptr[r];
    ptr[r] = out;
    if (lo != out) {
      // Forward copies are safe: the destination starts before the source.
      (std::copy_n(arrays.begin() + lo, len[r], arrays.begin() + out), ...);
    }
    out += len[r];
  }
  if (out == ptr[nrows]) return;
  ptr[nrows] = out;
  ((arrays.resize(static_cast<std::size_t>(out)), arrays.shrink_to_fit()),
   ...);
}

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assemble from coordinate entries. Entries may be in any order; column
  /// indices within each row come out sorted ascending. Out-of-range
  /// indices throw std::out_of_range.
  static CsrMatrix from_coo(vid_t nrows, vid_t ncols,
                            std::span<const CooEntry> entries,
                            DuplicatePolicy policy = DuplicatePolicy::kSum);

  /// Assemble a structural (pattern-only) matrix: all values set to 1.
  static CsrMatrix structural_from_coo(vid_t nrows, vid_t ncols,
                                       std::span<const CooEntry> entries);

  /// Adopt prebuilt CSR arrays (columns must be sorted within each row and
  /// duplicate-free; ptr must be a valid prefix-sum array). Used by bulk
  /// builders (the squares enumeration) that assemble in place. An empty
  /// `val` is expanded to all-ones.
  static CsrMatrix from_csr_arrays(vid_t nrows, vid_t ncols,
                                   std::vector<eid_t> ptr,
                                   std::vector<vid_t> col,
                                   std::vector<weight_t> val);

  [[nodiscard]] vid_t num_rows() const noexcept { return nrows_; }
  [[nodiscard]] vid_t num_cols() const noexcept { return ncols_; }
  [[nodiscard]] eid_t num_nonzeros() const noexcept {
    return static_cast<eid_t>(col_.size());
  }

  [[nodiscard]] std::span<const eid_t> row_ptr() const noexcept { return ptr_; }
  [[nodiscard]] std::span<const vid_t> col_idx() const noexcept { return col_; }
  [[nodiscard]] std::span<const weight_t> values() const noexcept {
    return val_;
  }
  [[nodiscard]] std::span<weight_t> values() noexcept { return val_; }

  /// Offsets of row r's nonzeros: [row_begin(r), row_end(r)).
  [[nodiscard]] eid_t row_begin(vid_t r) const noexcept { return ptr_[r]; }
  [[nodiscard]] eid_t row_end(vid_t r) const noexcept { return ptr_[r + 1]; }
  [[nodiscard]] eid_t row_size(vid_t r) const noexcept {
    return ptr_[r + 1] - ptr_[r];
  }

  /// Nonzero offset of entry (r, c), or kInvalidEid if absent.
  /// O(log row_size(r)) via binary search on the sorted columns.
  [[nodiscard]] eid_t find(vid_t r, vid_t c) const noexcept;

  /// True if the sparsity pattern equals the pattern of its transpose.
  [[nodiscard]] bool is_structurally_symmetric() const;

  /// Permutation perm such that, for a structurally symmetric matrix, the
  /// value array of the transpose is `val[perm[k]]` in this matrix's own
  /// nonzero order: entry k sits at (r, c), and perm[k] is the offset of
  /// (c, r). Throws std::logic_error if the matrix is not structurally
  /// symmetric. This is the paper's one-time transpose permutation.
  [[nodiscard]] std::vector<eid_t> symmetric_transpose_permutation() const;

  /// Explicit transpose (used by non-symmetric matrices and in tests as the
  /// reference for the permutation trick).
  [[nodiscard]] CsrMatrix transpose() const;

  /// y = M x  (row-parallel, dynamic schedule; sized for S-shaped matrices).
  void multiply(std::span<const weight_t> x, std::span<weight_t> y) const;

  /// Row sums into y (y_r = sum of row r values); the BP "F e" product.
  void row_sums(std::span<weight_t> y) const;

  /// Dense representation for tests of small matrices.
  [[nodiscard]] std::vector<std::vector<weight_t>> to_dense() const;

 private:
  /// Shared walk of the two members above: true iff the pattern is
  /// symmetric, filling perm (when non-empty) on the way.
  [[nodiscard]] bool transpose_walk(std::span<eid_t> perm) const;

  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  std::vector<eid_t> ptr_;
  std::vector<vid_t> col_;
  std::vector<weight_t> val_;
};

}  // namespace netalign
