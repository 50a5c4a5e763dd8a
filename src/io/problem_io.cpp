#include "io/problem_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "io/validate.hpp"

namespace netalign {

namespace {

// Bytes per read from a stream. Only a token longer than this (a
// pathological name) grows the buffer.
constexpr std::size_t kChunkBytes = std::size_t{1} << 18;

// The whitespace set of operator>> in the classic locale.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Parses a whole token with std::from_chars, accepting what operator>>
// accepts: an optional leading '+', and for doubles every fixed and
// exponent form. Trailing characters reject the token.
template <typename T>
bool parse_number(std::string_view tok, T& out) {
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return false;
  }
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars calls an underflow out of range; operator>> reads it as
    // zero or a subnormal, and so does strtod. Overflow stays an error.
    if (ec == std::errc::result_out_of_range && ptr == last) {
      const double v = std::strtod(std::string(first, last).c_str(), nullptr);
      if (!std::isfinite(v)) return false;
      out = v;
      return true;
    }
  }
  return ec == std::errc() && ptr == last;
}

// Whitespace-separated tokens over a window of bytes. The window is either
// text already in memory (never refilled) or a fixed-size buffer refilled
// from a stream; a token cut by the buffer's end is moved to the front
// before the next read. Offsets are logical -- bytes consumed from where
// reading began, plus the stream's starting position -- so error messages
// do not depend on how far the buffer has read ahead.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text)
      : data_(text.data()),
        end_(text.size()),
        size_(static_cast<long long>(text.size())) {}

  explicit Tokenizer(std::istream& in) : in_(&in), buf_(kChunkBytes) {
    data_ = buf_.data();
    if (!in.good()) {
      eof_ = true;
      return;
    }
    const long long here = io::position(in);
    if (here < 0) return;  // not seekable: no size bound, no offsets base
    origin_ = here;
    in.seekg(0, std::ios::end);
    const long long end = io::position(in);
    in.seekg(here);
    if (end >= here) size_ = end - here;
  }

  /// The next token, or an empty view at end of input. Valid until the
  /// next call.
  std::string_view next() {
    for (;;) {
      while (pos_ < end_ && is_space(data_[pos_])) ++pos_;
      if (pos_ < end_ || !refill(pos_)) break;
    }
    tok_at_ = base_ + static_cast<long long>(pos_);
    for (;;) {
      while (pos_ < end_ && !is_space(data_[pos_])) ++pos_;
      if (pos_ < end_ || !refill(static_cast<std::size_t>(tok_at_ - base_))) {
        break;
      }
    }
    const auto start = static_cast<std::size_t>(tok_at_ - base_);
    return {data_ + start, pos_ - start};
  }

  template <typename T>
  bool next_number(T& out) {
    return parse_number(next(), out);
  }

  /// Throws with the offset of the last token read, or of the end of input
  /// if it ran out.
  [[noreturn]] void fail(const std::string& msg) const {
    io::fail(origin_ + tok_at_, msg);
  }

  /// io::check_record_count for a count that was the last token read.
  template <typename Count>
  void check_record_count(Count count, std::size_t min_record_bytes,
                          const std::string& what) const {
    const long long remaining =
        size_ < 0 ? -1 : size_ - (base_ + static_cast<long long>(pos_));
    io::check_record_count(origin_ + tok_at_, remaining, count,
                           min_record_bytes, what);
  }

  /// Leaves a seekable stream just past the last token read.
  void rewind_stream() const {
    if (in_ != nullptr && size_ >= 0) {
      in_->seekg(origin_ + base_ + static_cast<long long>(pos_));
    }
  }

 private:
  // Drops the bytes before `keep` and appends the stream's next chunk.
  // False at end of input, and always for text in memory.
  bool refill(std::size_t keep) {
    if (in_ == nullptr || eof_) return false;
    const std::size_t kept = end_ - keep;
    std::memmove(buf_.data(), buf_.data() + keep, kept);
    base_ += static_cast<long long>(keep);
    pos_ -= keep;
    end_ = kept;
    if (kept == buf_.size()) buf_.resize(2 * buf_.size());
    data_ = buf_.data();
    const std::streamsize got = in_->rdbuf()->sgetn(
        buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    if (got <= 0) {
      eof_ = true;
      return false;
    }
    end_ += static_cast<std::size_t>(got);
    return true;
  }

  std::istream* in_ = nullptr;
  std::vector<char> buf_;
  const char* data_ = nullptr;  // the window: text, or buf_
  std::size_t pos_ = 0;         // scan position in the window
  std::size_t end_ = 0;         // valid bytes in the window
  long long base_ = 0;          // logical offset of data_[0]
  long long origin_ = 0;        // stream position where reading began
  long long size_ = -1;         // logical input size; -1 if unknown
  long long tok_at_ = 0;        // logical offset of the last token
  bool eof_ = false;
};

void expect_token(Tokenizer& tz, std::string_view expected) {
  const std::string_view tok = tz.next();
  if (tok != expected) {
    tz.fail("read_problem: expected token '" + std::string(expected) +
            "', got '" + std::string(tok) + "'");
  }
}

// Rejects NaN/Inf; `what` builds the message only on failure.
template <typename What>
void require_finite(const Tokenizer& tz, double v, What&& what) {
  if (!std::isfinite(v)) tz.fail(what() + ": non-finite value");
}

void write_graph(std::ostream& out, const char* tag, const Graph& g) {
  out << tag << ' ' << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) out << u << ' ' << v << '\n';
}

Graph read_graph(Tokenizer& tz, const char* tag) {
  expect_token(tz, tag);
  vid_t n = 0;
  eid_t m = 0;
  if (!tz.next_number(n) || !tz.next_number(m)) {
    tz.fail(std::string("read_problem: bad ") + tag + " header");
  }
  if (n < 0) {
    tz.fail(std::string("read_problem: negative ") + tag + " vertex count " +
            std::to_string(n));
  }
  // Minimal edge record "0 0" is 3 bytes; bounds the allocation against a
  // header declaring more edges than the input could hold.
  tz.check_record_count(m, 3, std::string("read_problem: ") + tag);
  std::vector<std::pair<vid_t, vid_t>> edges(static_cast<std::size_t>(m));
  for (eid_t i = 0; i < m; ++i) {
    auto& [u, v] = edges[static_cast<std::size_t>(i)];
    if (!tz.next_number(u) || !tz.next_number(v)) {
      tz.fail(std::string("read_problem: truncated ") + tag +
              " edge list at edge " + std::to_string(i));
    }
  }
  return Graph::from_edges(n, edges);
}

NetAlignProblem parse_problem(Tokenizer& tz) {
  expect_token(tz, "NETALIGN-PROBLEM");
  int version = 0;
  if (!tz.next_number(version) || version != 1) {
    tz.fail("read_problem: unsupported version");
  }
  NetAlignProblem p;
  expect_token(tz, "name");
  const std::string_view name = tz.next();
  if (name.empty()) tz.fail("read_problem: bad name");
  p.name = name;
  expect_token(tz, "alpha");
  if (!tz.next_number(p.alpha)) tz.fail("read_problem: bad alpha");
  require_finite(tz, p.alpha, [] { return std::string("read_problem: alpha"); });
  expect_token(tz, "beta");
  if (!tz.next_number(p.beta)) tz.fail("read_problem: bad beta");
  require_finite(tz, p.beta, [] { return std::string("read_problem: beta"); });
  p.A = read_graph(tz, "graphA");
  p.B = read_graph(tz, "graphB");
  expect_token(tz, "L");
  vid_t na = 0, nb = 0;
  eid_t ml = 0;
  if (!tz.next_number(na) || !tz.next_number(nb) || !tz.next_number(ml)) {
    tz.fail("read_problem: bad L header");
  }
  if (na < 0 || nb < 0) tz.fail("read_problem: negative L dimension");
  // Minimal L record "0 0 0" is 5 bytes.
  tz.check_record_count(ml, 5, "read_problem: L");
  std::vector<LEdge> edges(static_cast<std::size_t>(ml));
  for (eid_t i = 0; i < ml; ++i) {
    LEdge& e = edges[static_cast<std::size_t>(i)];
    if (!tz.next_number(e.a) || !tz.next_number(e.b) ||
        !tz.next_number(e.w)) {
      tz.fail("read_problem: truncated L edge list at edge " +
              std::to_string(i));
    }
    require_finite(tz, e.w, [i] {
      return "read_problem: L edge " + std::to_string(i) + " weight";
    });
  }
  p.L = BipartiteGraph::from_edges(na, nb, edges);
  if (!p.is_consistent()) {
    throw std::runtime_error("read_problem: inconsistent dimensions");
  }
  return p;
}

}  // namespace

void write_problem(std::ostream& out, const NetAlignProblem& p) {
  out << "NETALIGN-PROBLEM 1\n";
  out << "name " << (p.name.empty() ? "unnamed" : p.name) << '\n';
  out << "alpha " << p.alpha << " beta " << p.beta << '\n';
  write_graph(out, "graphA", p.A);
  write_graph(out, "graphB", p.B);
  out << "L " << p.L.num_a() << ' ' << p.L.num_b() << ' ' << p.L.num_edges()
      << '\n';
  for (eid_t e = 0; e < p.L.num_edges(); ++e) {
    out << p.L.edge_a(e) << ' ' << p.L.edge_b(e) << ' ' << p.L.edge_weight(e)
        << '\n';
  }
}

void write_problem_file(const std::string& path, const NetAlignProblem& p) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_problem_file: cannot open " + path);
  write_problem(out, p);
}

NetAlignProblem read_problem(std::istream& in) {
  Tokenizer tz(in);
  NetAlignProblem p = parse_problem(tz);
  tz.rewind_stream();
  return p;
}

NetAlignProblem read_problem(std::string_view text) {
  Tokenizer tz(text);
  return parse_problem(tz);
}

NetAlignProblem read_problem_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_problem_file: cannot open " + path);
  return read_problem(in);
}

}  // namespace netalign
