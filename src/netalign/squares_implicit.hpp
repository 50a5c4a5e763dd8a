// On-the-fly squares rows (docs/ARCHITECTURE.md "Memory model & implicit
// squares").
//
// The explicit SquaresMatrix stores 12 bytes per nonzero (column id +
// transpose permutation entry); at millions of L-edges that CSR is the
// repo's memory wall. Every row of S is recoverable from the A/B/L
// adjacency with the same Section IV-A mark-and-scan enumeration the
// explicit build uses, so this backend materializes only the O(|E_L|)
// row-pointer array and re-enumerates rows on demand into per-thread
// cursors. Cursors live in a leased pool (not indexed by thread id:
// consumers call through nested parallel regions where
// omp_get_thread_num() is not a stable identity), are reused across rows
// and regions, and cache the last enumerated row, so hot loops stay
// allocation-free after warm-up.
//
// Transposed access (sk_prev[perm[k]] in BP, U[perm[k]] in MR) cannot be
// served row-at-a-time: perm[k] for nonzero (e, f) is the offset of (f, e),
// i.e. ptr[f] plus the rank of e among row f's columns. Counting cursors
// reproduce it exactly: rows are swept in ascending order and a per-column
// counter cnt[f] -- seeded at precomputed chunk boundaries -- yields
// ptr[f] + cnt[f]++ as each (e, f) is emitted. The row range is cut into a
// small number of nnz-balanced chunks with the exclusive per-column prefix
// counts stored per chunk, so the sweep parallelizes over chunks while
// each chunk's rows stay sequential.
//
// An ImplicitSquares pins the problem by pointer: the NetAlignProblem must
// outlive it and must not move (heap-owning holders like the server cache
// satisfy this by never relocating a built entry).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "netalign/problem.hpp"
#include "util/types.hpp"

namespace netalign::obs {
class Counters;
}  // namespace netalign::obs

namespace netalign {

class ImplicitSquares {
 public:
  struct BuildOptions {
    /// Build the counting-cursor tables for transposed access. BP and MR
    /// need them; IsoRank and objective-only pipelines can skip the
    /// O(num_chunks * |E_L|) table memory.
    bool transpose_support = true;
    /// Transpose chunk count; 0 picks 2 * max_threads(), clamped to the
    /// row count. More chunks = better load balance but larger tables.
    int num_chunks = 0;
  };

  /// Heap-allocated because the cursor pool mutex makes the type
  /// immovable. Runs the counting pass itself, or adopts one from
  /// squares_row_ptr (second overload) so `auto` mode selection shares it.
  static std::unique_ptr<ImplicitSquares> build(const NetAlignProblem& p);
  static std::unique_ptr<ImplicitSquares> build(const NetAlignProblem& p,
                                                const BuildOptions& options);
  static std::unique_ptr<ImplicitSquares> build(const NetAlignProblem& p,
                                                std::vector<eid_t> ptr);
  static std::unique_ptr<ImplicitSquares> build(const NetAlignProblem& p,
                                                std::vector<eid_t> ptr,
                                                const BuildOptions& options);

  ImplicitSquares(const ImplicitSquares&) = delete;
  ImplicitSquares& operator=(const ImplicitSquares&) = delete;
  ~ImplicitSquares();  // out-of-line: Cursor is incomplete here

  /// Pattern skeleton -- identical to the explicit backend's by
  /// construction (both derive from squares_row_ptr).
  [[nodiscard]] vid_t num_rows() const noexcept {
    return static_cast<vid_t>(ptr_.size() - 1);
  }
  [[nodiscard]] eid_t num_nonzeros() const noexcept { return ptr_.back(); }
  [[nodiscard]] eid_t num_squares() const noexcept { return ptr_.back() / 2; }
  [[nodiscard]] std::span<const eid_t> row_ptr() const noexcept {
    return ptr_;
  }
  [[nodiscard]] eid_t row_begin(vid_t r) const noexcept { return ptr_[r]; }
  [[nodiscard]] eid_t row_end(vid_t r) const noexcept { return ptr_[r + 1]; }
  [[nodiscard]] eid_t max_row_width() const noexcept { return max_row_width_; }
  [[nodiscard]] bool transpose_support() const noexcept {
    return !chunk_rows_.empty();
  }

  /// The transpose sweep's chunk grid: rows [trans_chunk_begin(c),
  /// trans_chunk_end(c)) must be visited in ascending order by the lease
  /// that called begin_trans_chunk(c). Chunks are nnz-balanced.
  [[nodiscard]] std::int64_t num_trans_chunks() const noexcept {
    return chunk_rows_.empty()
               ? 0
               : static_cast<std::int64_t>(chunk_rows_.size()) - 1;
  }
  [[nodiscard]] vid_t trans_chunk_begin(std::int64_t c) const noexcept {
    return chunk_rows_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] vid_t trans_chunk_end(std::int64_t c) const noexcept {
    return chunk_rows_[static_cast<std::size_t>(c) + 1];
  }

  /// Resident bytes of the materialized structure: row pointers plus the
  /// transpose chunk tables. Per-cursor working memory (mark array, row
  /// buffers) is excluded; it scales with threads, not with nnz.
  [[nodiscard]] std::uint64_t structure_bytes() const noexcept;
  /// structure_bytes() of the backend build(p, ptr, options) would make,
  /// computed from the counting pass alone (nothing is enumerated).
  [[nodiscard]] static std::uint64_t estimate_structure_bytes(
      std::span<const eid_t> ptr, const BuildOptions& options);

  /// Lifetime enumeration statistics summed over every cursor the pool
  /// ever created. Read between solves (leases outstanding while reading
  /// would under-count, not race: cursor stats are only merged here).
  struct Stats {
    std::int64_t rows_enumerated = 0;
    std::int64_t cursor_reuse_hits = 0;
  };
  [[nodiscard]] Stats stats() const;
  /// Add the squares.implicit_* counters (docs/OBSERVABILITY.md) to
  /// `counters`; no-op when null.
  void publish_counters(obs::Counters* counters) const;

  struct Cursor;

  /// RAII hold on one pooled cursor. Acquire once per parallel region (or
  /// per chunk in nested contexts) -- one mutex round-trip each way --
  /// then enumerate rows lock-free. Spans returned by cols()/row_trans()
  /// alias the cursor's buffers and are invalidated by the next call.
  class Lease {
   public:
    explicit Lease(const ImplicitSquares& owner);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Column edge ids of row e (ascending). Re-serves the buffered row
    /// without re-enumerating when e was the previous query.
    [[nodiscard]] std::span<const vid_t> cols(vid_t e);

    /// Seed the counting cursor at transpose chunk c's base counts.
    void begin_trans_chunk(std::int64_t c);
    /// Columns plus transpose offsets (tks[i] == trans_perm of nonzero
    /// ptr[e] + i). Only valid for ascending e within the chunk primed by
    /// begin_trans_chunk.
    [[nodiscard]] std::pair<std::span<const vid_t>, std::span<const eid_t>>
    row_trans(vid_t e);

   private:
    const ImplicitSquares* owner_;
    Cursor* cur_;
  };

 private:
  ImplicitSquares() = default;

  void init(const NetAlignProblem& p, std::vector<eid_t> ptr,
            const BuildOptions& options);
  [[nodiscard]] Cursor* acquire() const;
  void release(Cursor* cur) const;
  void enumerate_row(Cursor& cur, vid_t e) const;

  const NetAlignProblem* p_ = nullptr;
  std::vector<eid_t> ptr_;
  eid_t max_row_width_ = 0;

  // Transpose chunk grid (empty without transpose support): nc + 1 row
  // boundaries and, per chunk, the exclusive per-column prefix counts
  // #{(e, f) : e < chunk_begin} that seed its counting cursor.
  std::vector<vid_t> chunk_rows_;
  std::vector<std::vector<vid_t>> base_cnt_;

  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<Cursor>> cursors_;
  mutable std::vector<Cursor*> free_;
};

}  // namespace netalign
