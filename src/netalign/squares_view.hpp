// Backend-agnostic access to the squares matrix S.
//
// Every solver consumes S through one of four access shapes: row extents
// (ptr only), a parallel sweep over row columns, a parallel sweep that
// also needs transposed offsets (the paper's permutation trick), or
// random row reads inside a deterministic reduction. SquaresView serves
// all four over either backend -- the explicit SquaresMatrix or the
// on-the-fly ImplicitSquares -- without virtual dispatch: it is two
// pointers plus the shared row-pointer span, cheap to copy, and converts
// implicitly from either backend so existing call sites keep compiling.
//
// Bit-identity contract: for a fixed problem both backends present the
// same pattern (same squares_row_ptr counting pass, same ascending column
// order, same transpose offsets), and every sweep below preserves the
// per-row arithmetic order of the explicit loops, so solver results are
// bit-identical across backends (CTest gate: test_squares_implicit).
//
// A view borrows its backend; keep the backend (and, for implicit, the
// problem) alive for the view's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "netalign/squares.hpp"
#include "netalign/squares_implicit.hpp"
#include "util/parallel.hpp"

namespace netalign {

class SquaresView {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit
  // conversion so `align(p, S, opts)` keeps working for SquaresMatrix S.
  SquaresView(const SquaresMatrix& s)
      : matrix_(&s), ptr_(s.pattern().row_ptr()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  SquaresView(const ImplicitSquares& s) : implicit_(&s), ptr_(s.row_ptr()) {}

  [[nodiscard]] vid_t num_rows() const noexcept {
    return static_cast<vid_t>(ptr_.size() - 1);
  }
  [[nodiscard]] eid_t num_nonzeros() const noexcept { return ptr_.back(); }
  [[nodiscard]] eid_t num_squares() const noexcept { return ptr_.back() / 2; }
  [[nodiscard]] eid_t row_begin(vid_t r) const noexcept { return ptr_[r]; }
  [[nodiscard]] eid_t row_end(vid_t r) const noexcept { return ptr_[r + 1]; }
  [[nodiscard]] eid_t max_row_width() const noexcept {
    eid_t w = 0;
    for (vid_t e = 0; e < num_rows(); ++e) {
      w = std::max(w, ptr_[e + 1] - ptr_[e]);
    }
    return w;
  }
  [[nodiscard]] bool is_implicit() const noexcept {
    return implicit_ != nullptr;
  }

  /// Serial random row reads for reductions that manage their own
  /// parallelism (evaluate_objective's deterministic chunks). The lease
  /// behind an implicit view is acquired lazily on the first read, so
  /// constructing an access in a chunk that reads no rows costs nothing.
  class RowAccess {
   public:
    [[nodiscard]] std::span<const vid_t> cols(vid_t e) {
      if (matrix_ != nullptr) {
        return matrix_->pattern().col_idx().subspan(
            static_cast<std::size_t>(matrix_->row_begin(e)),
            static_cast<std::size_t>(matrix_->row_end(e) -
                                     matrix_->row_begin(e)));
      }
      if (!lease_.has_value()) lease_.emplace(*implicit_);
      return lease_->cols(e);
    }

   private:
    friend class SquaresView;
    explicit RowAccess(const SquaresMatrix* m, const ImplicitSquares* i)
        : matrix_(m), implicit_(i) {}
    const SquaresMatrix* matrix_;
    const ImplicitSquares* implicit_;
    std::optional<ImplicitSquares::Lease> lease_;
  };
  [[nodiscard]] RowAccess access() const {
    return RowAccess(matrix_, implicit_);
  }

  /// Parallel sweep over all rows: fn(e, base, cols) with cols ascending
  /// and nonzero k of column cols[i] at offset base + i. Runs its own
  /// fenced_parallel region; fn may call omp_get_thread_num().
  template <typename Fn>
  void par_rows(Fn&& fn) const {
    const vid_t nrows = num_rows();
    if (matrix_ != nullptr) {
      const auto scol = matrix_->pattern().col_idx();
      fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
        for (vid_t e = 0; e < nrows; ++e) {
          const eid_t lo = ptr_[e];
          fn(e, lo,
             scol.subspan(static_cast<std::size_t>(lo),
                          static_cast<std::size_t>(ptr_[e + 1] - lo)));
        }
      });
      return;
    }
    fenced_parallel([&] {
      ImplicitSquares::Lease lease(*implicit_);
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
      for (vid_t e = 0; e < nrows; ++e) {
        fn(e, ptr_[e], lease.cols(e));
      }
    });
  }

  /// Parallel sweep with transposed offsets: fn(e, base, cols, tks) where
  /// tks[i] is the nonzero offset of (cols[i], e) -- exactly trans_perm of
  /// base + i. The explicit path keeps the paper's dynamic-chunk row
  /// schedule; the implicit path iterates the backend's nnz-balanced
  /// chunk grid so its counting cursors see rows in ascending order.
  /// Per-row results are identical either way: no consumer carries state
  /// across rows inside fn.
  template <typename Fn>
  void par_rows_trans(Fn&& fn) const {
    if (matrix_ != nullptr) {
      const auto scol = matrix_->pattern().col_idx();
      const auto perm = matrix_->trans_perm();
      const vid_t nrows = num_rows();
      fenced_parallel([&] {
#pragma omp for schedule(dynamic, kDynamicChunk) nowait
        for (vid_t e = 0; e < nrows; ++e) {
          const eid_t lo = ptr_[e];
          const auto len = static_cast<std::size_t>(ptr_[e + 1] - lo);
          fn(e, lo, scol.subspan(static_cast<std::size_t>(lo), len),
             perm.subspan(static_cast<std::size_t>(lo), len));
        }
      });
      return;
    }
    const std::int64_t nc = implicit_->num_trans_chunks();
    fenced_parallel([&] {
      ImplicitSquares::Lease lease(*implicit_);
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t c = 0; c < nc; ++c) {
        lease.begin_trans_chunk(c);
        const vid_t hi = implicit_->trans_chunk_end(c);
        for (vid_t e = implicit_->trans_chunk_begin(c); e < hi; ++e) {
          const auto [cols, tks] = lease.row_trans(e);
          fn(e, ptr_[e], cols, tks);
        }
      }
    });
  }

 private:
  const SquaresMatrix* matrix_ = nullptr;
  const ImplicitSquares* implicit_ = nullptr;
  std::span<const eid_t> ptr_;
};

/// --squares-mode on the CLI / "squares_mode" in the server submit schema.
enum class SquaresMode {
  kExplicit,  ///< materialize the CSR + transpose permutation (default)
  kImplicit,  ///< enumerate rows on the fly
  kAuto,      ///< implicit iff the explicit estimate exceeds the budget
};

[[nodiscard]] std::string to_string(SquaresMode mode);
/// Parse "explicit" / "implicit" / "auto"; throws std::invalid_argument.
[[nodiscard]] SquaresMode squares_mode_from_string(const std::string& name);

struct SquaresBackendOptions {
  SquaresMode mode = SquaresMode::kExplicit;
  /// `auto` threshold: bytes the explicit structure may occupy before the
  /// selection flips to implicit (only if the implicit structure is
  /// estimated smaller than the explicit one).
  std::uint64_t budget_bytes = std::uint64_t{2048} << 20;
  /// Forwarded to ImplicitSquares (BP/MR need transpose tables; IsoRank
  /// does not).
  bool transpose_support = true;
  int num_chunks = 0;
};

/// The owning pair behind a view: exactly one backend is populated. The
/// counting pass runs once and is shared by the auto estimate and
/// whichever backend gets built. Movable; keep the problem alive and
/// un-moved while `implicit` is set.
struct SquaresBackend {
  std::optional<SquaresMatrix> matrix;
  std::unique_ptr<ImplicitSquares> implicit;
  eid_t nnz = 0;
  /// What the explicit structure would occupy (measured for explicit,
  /// estimated from the counting pass for implicit).
  std::uint64_t explicit_bytes = 0;

  [[nodiscard]] bool is_implicit() const noexcept {
    return implicit != nullptr;
  }
  [[nodiscard]] SquaresView view() const {
    return is_implicit() ? SquaresView(*implicit) : SquaresView(*matrix);
  }
  [[nodiscard]] std::string mode_name() const {
    return is_implicit() ? "implicit" : "explicit";
  }
  /// Bytes resident for the selected backend's structure.
  [[nodiscard]] std::uint64_t structure_bytes() const noexcept {
    return is_implicit() ? implicit->structure_bytes()
                         : matrix->structure_bytes();
  }
};

[[nodiscard]] SquaresBackend build_squares_backend(
    const NetAlignProblem& p, const SquaresBackendOptions& options);

}  // namespace netalign
