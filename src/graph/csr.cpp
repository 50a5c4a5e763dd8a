#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace netalign {

namespace {

void check_entries(vid_t nrows, vid_t ncols, std::span<const CooEntry> entries) {
  for (const auto& e : entries) {
    if (e.row < 0 || e.row >= nrows || e.col < 0 || e.col >= ncols) {
      throw std::out_of_range("CsrMatrix::from_coo: entry out of range");
    }
  }
}

}  // namespace

CsrMatrix CsrMatrix::from_coo(vid_t nrows, vid_t ncols,
                              std::span<const CooEntry> entries,
                              DuplicatePolicy policy) {
  if (nrows < 0 || ncols < 0) {
    throw std::invalid_argument("CsrMatrix::from_coo: negative dimension");
  }
  check_entries(nrows, ncols, entries);

  CsrMatrix m;
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.ptr_.assign(static_cast<std::size_t>(nrows) + 1, 0);

  // Counting sort by row, then sort each row by column and fold duplicates.
  for (const auto& e : entries) m.ptr_[e.row + 1]++;
  for (vid_t r = 0; r < nrows; ++r) m.ptr_[r + 1] += m.ptr_[r];

  std::vector<vid_t> col(entries.size());
  std::vector<weight_t> val(entries.size());
  {
    std::vector<eid_t> cursor(m.ptr_.begin(), m.ptr_.end() - 1);
    for (const auto& e : entries) {
      const eid_t k = cursor[e.row]++;
      col[k] = e.col;
      val[k] = e.value;
    }
  }

  m.col_.reserve(col.size());
  m.val_.reserve(val.size());
  std::vector<eid_t> order;
  std::vector<eid_t> new_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  for (vid_t r = 0; r < nrows; ++r) {
    const eid_t lo = m.ptr_[r], hi = m.ptr_[r + 1];
    order.resize(hi - lo);
    for (eid_t k = lo; k < hi; ++k) order[k - lo] = k;
    std::sort(order.begin(), order.end(),
              [&](eid_t a, eid_t b) { return col[a] < col[b]; });
    const std::size_t row_start = m.col_.size();
    for (const eid_t k : order) {
      const vid_t c = col[k];
      const weight_t v = val[k];
      if (m.col_.size() > row_start && m.col_.back() == c) {
        switch (policy) {
          case DuplicatePolicy::kSum:
            m.val_.back() += v;
            break;
          case DuplicatePolicy::kMax:
            m.val_.back() = std::max(m.val_.back(), v);
            break;
          case DuplicatePolicy::kError:
            throw std::invalid_argument(
                "CsrMatrix::from_coo: duplicate entry");
        }
      } else {
        m.col_.push_back(c);
        m.val_.push_back(v);
      }
    }
    new_ptr[r + 1] = static_cast<eid_t>(m.col_.size());
  }
  m.ptr_ = std::move(new_ptr);
  return m;
}

CsrMatrix CsrMatrix::structural_from_coo(vid_t nrows, vid_t ncols,
                                         std::span<const CooEntry> entries) {
  std::vector<CooEntry> ones(entries.begin(), entries.end());
  for (auto& e : ones) e.value = 1.0;
  return from_coo(nrows, ncols, ones, DuplicatePolicy::kMax);
}

CsrMatrix CsrMatrix::from_csr_arrays(vid_t nrows, vid_t ncols,
                                     std::vector<eid_t> ptr,
                                     std::vector<vid_t> col,
                                     std::vector<weight_t> val) {
  if (static_cast<vid_t>(ptr.size()) != nrows + 1 ||
      ptr.front() != 0 || ptr.back() != static_cast<eid_t>(col.size())) {
    throw std::invalid_argument("CsrMatrix::from_csr_arrays: bad ptr array");
  }
  for (vid_t r = 0; r < nrows; ++r) {
    if (ptr[r] > ptr[r + 1]) {
      throw std::invalid_argument(
          "CsrMatrix::from_csr_arrays: ptr not monotone");
    }
    for (eid_t k = ptr[r]; k < ptr[r + 1]; ++k) {
      if (col[k] < 0 || col[k] >= ncols ||
          (k > ptr[r] && col[k] <= col[k - 1])) {
        throw std::invalid_argument(
            "CsrMatrix::from_csr_arrays: columns unsorted or out of range");
      }
    }
  }
  if (val.empty()) {
    val.assign(col.size(), 1.0);
  } else if (val.size() != col.size()) {
    throw std::invalid_argument("CsrMatrix::from_csr_arrays: val size");
  }
  CsrMatrix m;
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.ptr_ = std::move(ptr);
  m.col_ = std::move(col);
  m.val_ = std::move(val);
  return m;
}

eid_t CsrMatrix::find(vid_t r, vid_t c) const noexcept {
  const auto first = col_.begin() + row_begin(r);
  const auto last = col_.begin() + row_end(r);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kInvalidEid;
  return static_cast<eid_t>(it - col_.begin());
}

bool CsrMatrix::transpose_walk(std::span<eid_t> perm) const {
  if (nrows_ != ncols_) return false;
  // Rows are visited in increasing r and each row's columns ascend, so in a
  // symmetric pattern the mirror (c, r) of entry (r, c) is always the next
  // unclaimed slot of row c. One cursor per row finds every mirror in
  // O(nnz); a slot whose column is not r proves the pattern asymmetric.
  // Every entry claims a distinct slot, so nnz successful claims cover all
  // of them.
  std::vector<eid_t> cursor(ptr_.begin(), ptr_.end() - 1);
  for (vid_t r = 0; r < nrows_; ++r) {
    for (eid_t k = row_begin(r); k < row_end(r); ++k) {
      const vid_t c = col_[k];
      const eid_t q = cursor[c]++;
      if (q >= ptr_[c + 1] || col_[q] != r) return false;
      if (!perm.empty()) perm[k] = q;
    }
  }
  return true;
}

bool CsrMatrix::is_structurally_symmetric() const {
  return transpose_walk({});
}

std::vector<eid_t> CsrMatrix::symmetric_transpose_permutation() const {
  std::vector<eid_t> perm(col_.size());
  if (!transpose_walk(perm)) {
    throw std::logic_error(
        "symmetric_transpose_permutation: pattern is not symmetric");
  }
  return perm;
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t;
  t.nrows_ = ncols_;
  t.ncols_ = nrows_;
  t.ptr_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  for (vid_t c : col_) t.ptr_[c + 1]++;
  for (vid_t c = 0; c < ncols_; ++c) t.ptr_[c + 1] += t.ptr_[c];
  t.col_.resize(col_.size());
  t.val_.resize(val_.size());
  std::vector<eid_t> cursor(t.ptr_.begin(), t.ptr_.end() - 1);
  for (vid_t r = 0; r < nrows_; ++r) {
    for (eid_t k = row_begin(r); k < row_end(r); ++k) {
      const eid_t pos = cursor[col_[k]]++;
      t.col_[pos] = r;
      t.val_[pos] = val_[k];
    }
  }
  return t;
}

void CsrMatrix::multiply(std::span<const weight_t> x,
                         std::span<weight_t> y) const {
  if (static_cast<vid_t>(x.size()) != ncols_ ||
      static_cast<vid_t>(y.size()) != nrows_) {
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  }
  fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (vid_t r = 0; r < nrows_; ++r) {
      weight_t sum = 0.0;
      for (eid_t k = row_begin(r); k < row_end(r); ++k) {
        sum += val_[k] * x[col_[k]];
      }
      y[r] = sum;
    }
  });
}

void CsrMatrix::row_sums(std::span<weight_t> y) const {
  if (static_cast<vid_t>(y.size()) != nrows_) {
    throw std::invalid_argument("CsrMatrix::row_sums: size mismatch");
  }
  fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
    for (vid_t r = 0; r < nrows_; ++r) {
      weight_t sum = 0.0;
      for (eid_t k = row_begin(r); k < row_end(r); ++k) sum += val_[k];
      y[r] = sum;
    }
  });
}

std::vector<std::vector<weight_t>> CsrMatrix::to_dense() const {
  std::vector<std::vector<weight_t>> dense(
      nrows_, std::vector<weight_t>(ncols_, 0.0));
  for (vid_t r = 0; r < nrows_; ++r) {
    for (eid_t k = row_begin(r); k < row_end(r); ++k) {
      dense[r][col_[k]] += val_[k];
    }
  }
  return dense;
}

}  // namespace netalign
