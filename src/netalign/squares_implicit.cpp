#include "netalign/squares_implicit.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "netalign/squares.hpp"
#include "obs/counters.hpp"
#include "util/parallel.hpp"

namespace netalign {

/// One reusable enumeration cursor. mark/epoch replay the explicit build's
/// mark-and-scan; cols buffers the current row; tks/cnt serve the counting
/// transpose. Epochs are 64-bit: a long solver run advances the epoch once
/// per enumerated row across every iteration, which overflows 32 bits (and
/// a wrapped epoch turns stale marks into phantom squares).
struct ImplicitSquares::Cursor {
  std::vector<std::uint64_t> mark;
  std::uint64_t epoch = 0;
  std::vector<vid_t> cols;
  std::vector<eid_t> tks;
  std::vector<vid_t> cnt;
  vid_t cached_row = -1;
  std::int64_t rows_enumerated = 0;
  std::int64_t reuse_hits = 0;
};

ImplicitSquares::~ImplicitSquares() = default;

namespace {

/// Transpose chunk count for a row count of m: the requested count, or
/// 2 * max_threads() by default, clamped to [1, max(m, 1)].
std::int64_t trans_chunk_count(const ImplicitSquares::BuildOptions& options,
                               vid_t m) {
  const std::int64_t nc = options.num_chunks > 0
                              ? options.num_chunks
                              : std::max(1, 2 * max_threads());
  return std::min<std::int64_t>(nc, std::max<vid_t>(m, 1));
}

}  // namespace

std::unique_ptr<ImplicitSquares> ImplicitSquares::build(
    const NetAlignProblem& p) {
  return build(p, squares_row_ptr(p), BuildOptions{});
}

std::unique_ptr<ImplicitSquares> ImplicitSquares::build(
    const NetAlignProblem& p, const BuildOptions& options) {
  return build(p, squares_row_ptr(p), options);
}

std::unique_ptr<ImplicitSquares> ImplicitSquares::build(
    const NetAlignProblem& p, std::vector<eid_t> ptr) {
  return build(p, std::move(ptr), BuildOptions{});
}

std::unique_ptr<ImplicitSquares> ImplicitSquares::build(
    const NetAlignProblem& p, std::vector<eid_t> ptr,
    const BuildOptions& options) {
  if (!p.is_consistent()) {
    throw std::invalid_argument("ImplicitSquares::build: inconsistent problem");
  }
  if (ptr.size() != static_cast<std::size_t>(p.L.num_edges()) + 1) {
    throw std::invalid_argument(
        "ImplicitSquares::build: row-ptr size mismatch");
  }
  std::unique_ptr<ImplicitSquares> sq(new ImplicitSquares());
  sq->init(p, std::move(ptr), options);
  return sq;
}

void ImplicitSquares::init(const NetAlignProblem& p, std::vector<eid_t> ptr,
                           const BuildOptions& options) {
  p_ = &p;
  ptr_ = std::move(ptr);
  const auto m = static_cast<vid_t>(ptr_.size() - 1);
  for (vid_t e = 0; e < m; ++e) {
    max_row_width_ = std::max(max_row_width_, ptr_[e + 1] - ptr_[e]);
  }
  if (!options.transpose_support) return;

  // nnz-balanced chunk boundaries: chunk c starts at the first row whose
  // prefix reaches c/nc of the nonzeros. Empty chunks (tiny or skewed
  // instances) are harmless -- their row range is empty.
  const std::int64_t nc = trans_chunk_count(options, m);
  chunk_rows_.resize(static_cast<std::size_t>(nc) + 1);
  chunk_rows_.front() = 0;
  chunk_rows_.back() = m;
  for (std::int64_t c = 1; c < nc; ++c) {
    const eid_t target = ptr_[m] / nc * c;
    const auto it = std::lower_bound(ptr_.begin(), ptr_.end(), target);
    chunk_rows_[static_cast<std::size_t>(c)] =
        static_cast<vid_t>(it - ptr_.begin());
  }
  // Boundaries from lower_bound are nondecreasing but runs of empty rows
  // can reorder against the forced endpoints; monotonize.
  for (std::size_t c = 1; c < chunk_rows_.size(); ++c) {
    chunk_rows_[c] = std::max(chunk_rows_[c], chunk_rows_[c - 1]);
    chunk_rows_[c] = std::min(chunk_rows_[c], m);
  }

  // Per-chunk column counts (one enumeration sweep, parallel over chunks),
  // then an in-place exclusive prefix across chunks: base_cnt_[c][f] =
  // #{(e, f) : e < chunk_rows_[c]}, the counting-cursor seed.
  base_cnt_.assign(static_cast<std::size_t>(nc), {});
  fenced_parallel([&] {
    Lease lease(*this);
#pragma omp for schedule(dynamic, 1) nowait
    for (std::int64_t c = 0; c < nc; ++c) {
      auto& cnt = base_cnt_[static_cast<std::size_t>(c)];
      cnt.assign(static_cast<std::size_t>(m), 0);
      for (vid_t e = chunk_rows_[static_cast<std::size_t>(c)];
           e < chunk_rows_[static_cast<std::size_t>(c) + 1]; ++e) {
        for (const vid_t f : lease.cols(e)) ++cnt[f];
      }
    }
  });
  std::vector<vid_t> run(static_cast<std::size_t>(m), 0);
  for (auto& chunk_cnt : base_cnt_) {
    for (vid_t f = 0; f < m; ++f) {
      const vid_t within = chunk_cnt[f];
      chunk_cnt[f] = run[f];
      run[f] += within;
    }
  }
  // Column f's total count must equal row f's width (S is structurally
  // symmetric); anything else means the counting pass and the enumeration
  // disagree and every transpose offset downstream would be garbage.
  for (vid_t f = 0; f < m; ++f) {
    if (static_cast<eid_t>(run[f]) != ptr_[f + 1] - ptr_[f]) {
      throw std::logic_error(
          "ImplicitSquares: asymmetric enumeration (column/row count "
          "mismatch)");
    }
  }
}

void ImplicitSquares::enumerate_row(Cursor& cur, vid_t e) const {
  if (cur.cached_row == e) {
    ++cur.reuse_hits;
    return;
  }
  const BipartiteGraph& L = p_->L;
  cur.cols.clear();
  const vid_t i = L.edge_a(e);
  const vid_t ip = L.edge_b(e);
  ++cur.epoch;
  for (const vid_t jp : p_->B.neighbors(ip)) cur.mark[jp] = cur.epoch;
  for (const vid_t j : p_->A.neighbors(i)) {
    for (eid_t f = L.row_begin(j); f < L.row_end(j); ++f) {
      if (cur.mark[L.edge_b(f)] == cur.epoch) {
        cur.cols.push_back(static_cast<vid_t>(f));
      }
    }
  }
  if (!std::is_sorted(cur.cols.begin(), cur.cols.end())) {
    std::sort(cur.cols.begin(), cur.cols.end());
  }
  assert(static_cast<eid_t>(cur.cols.size()) == ptr_[e + 1] - ptr_[e]);
  cur.cached_row = e;
  ++cur.rows_enumerated;
}

ImplicitSquares::Cursor* ImplicitSquares::acquire() const {
  const std::scoped_lock lock(pool_mu_);
  if (!free_.empty()) {
    Cursor* cur = free_.back();
    free_.pop_back();
    return cur;
  }
  auto cur = std::make_unique<Cursor>();
  cur->mark.assign(static_cast<std::size_t>(p_->L.num_b()), 0);
  cur->cols.reserve(static_cast<std::size_t>(max_row_width_));
  cur->tks.reserve(static_cast<std::size_t>(max_row_width_));
  Cursor* raw = cur.get();
  cursors_.push_back(std::move(cur));
  return raw;
}

void ImplicitSquares::release(Cursor* cur) const {
  const std::scoped_lock lock(pool_mu_);
  free_.push_back(cur);
}

ImplicitSquares::Lease::Lease(const ImplicitSquares& owner)
    : owner_(&owner), cur_(owner.acquire()) {}

ImplicitSquares::Lease::~Lease() { owner_->release(cur_); }

std::span<const vid_t> ImplicitSquares::Lease::cols(vid_t e) {
  owner_->enumerate_row(*cur_, e);
  return cur_->cols;
}

void ImplicitSquares::Lease::begin_trans_chunk(std::int64_t c) {
  if (!owner_->transpose_support()) {
    throw std::logic_error(
        "ImplicitSquares: transpose access without transpose_support");
  }
  const auto& base = owner_->base_cnt_[static_cast<std::size_t>(c)];
  cur_->cnt.assign(base.begin(), base.end());
}

std::pair<std::span<const vid_t>, std::span<const eid_t>>
ImplicitSquares::Lease::row_trans(vid_t e) {
  Cursor& cur = *cur_;
  owner_->enumerate_row(cur, e);
  cur.tks.resize(cur.cols.size());
  const auto& ptr = owner_->ptr_;
  for (std::size_t i = 0; i < cur.cols.size(); ++i) {
    const vid_t f = cur.cols[i];
    cur.tks[i] = ptr[f] + static_cast<eid_t>(cur.cnt[f]++);
  }
  return {std::span<const vid_t>(cur.cols), std::span<const eid_t>(cur.tks)};
}

std::uint64_t ImplicitSquares::structure_bytes() const noexcept {
  std::uint64_t bytes = ptr_.size() * sizeof(eid_t) +
                        chunk_rows_.size() * sizeof(vid_t);
  for (const auto& cnt : base_cnt_) bytes += cnt.size() * sizeof(vid_t);
  return bytes;
}

std::uint64_t ImplicitSquares::estimate_structure_bytes(
    std::span<const eid_t> ptr, const BuildOptions& options) {
  std::uint64_t bytes = ptr.size() * sizeof(eid_t);
  if (!options.transpose_support) return bytes;
  // chunk_rows_ (nc + 1 boundaries) plus nc base-count tables of m entries.
  const auto m = static_cast<vid_t>(ptr.size() - 1);
  const auto nc = static_cast<std::uint64_t>(trans_chunk_count(options, m));
  return bytes + (nc + 1) * sizeof(vid_t) +
         nc * static_cast<std::uint64_t>(m) * sizeof(vid_t);
}

ImplicitSquares::Stats ImplicitSquares::stats() const {
  Stats s;
  const std::scoped_lock lock(pool_mu_);
  for (const auto& cur : cursors_) {
    s.rows_enumerated += cur->rows_enumerated;
    s.cursor_reuse_hits += cur->reuse_hits;
  }
  return s;
}

void ImplicitSquares::publish_counters(obs::Counters* counters) const {
  if (counters == nullptr) return;
  const Stats s = stats();
  counters->add("squares.implicit_rows_enumerated", s.rows_enumerated);
  counters->add("squares.implicit_cursor_reuse_hits", s.cursor_reuse_hits);
}

}  // namespace netalign
