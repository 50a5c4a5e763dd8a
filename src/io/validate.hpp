// Shared validation helpers for the text loaders in io/. Two hazards are
// handled centrally so every format gets the same treatment (see
// docs/FORMATS.md "Error taxonomy"):
//
//  - allocation bombs: a corrupt or hostile header can declare a record
//    count far beyond what the stream could possibly hold, turning a
//    `reserve()` into a multi-gigabyte allocation before the first record
//    is even read. check_record_count() bounds the count by the bytes
//    remaining in the stream (skipped for non-seekable sources, where the
//    per-record reads fail fast anyway);
//  - poisoned numerics: NaN/Inf weights pass `operator>>` silently and
//    then wreck every comparison-based matcher downstream.
//    require_finite() rejects them at the boundary.
//
// Errors carry the byte offset so a bad record in a large file is findable
// without bisection.
#pragma once

#include <cmath>
#include <cstddef>
#include <istream>
#include <stdexcept>
#include <string>

namespace netalign::io {

/// The stream's position for error messages, or -1 when it cannot report
/// one. Works even after a failed extraction: the fail bit is cleared just
/// long enough to ask, then restored.
inline long long position(std::istream& in) {
  const auto state = in.rdstate();
  in.clear(state & ~(std::ios::failbit | std::ios::eofbit));
  const auto pos = in.tellg();
  in.clear(state);
  return pos < 0 ? -1 : static_cast<long long>(pos);
}

/// " (at byte N)" suffix for loader errors, or "" for an unknown (negative)
/// position.
inline std::string at_byte(long long pos) {
  if (pos < 0) return "";
  return " (at byte " + std::to_string(pos) + ")";
}

inline std::string at_byte(std::istream& in) { return at_byte(position(in)); }

/// Throws std::runtime_error with the byte position appended. The offset
/// form serves loaders that track their own position (problem_io.cpp).
[[noreturn]] inline void fail(long long pos, const std::string& msg) {
  throw std::runtime_error(msg + at_byte(pos));
}

[[noreturn]] inline void fail(std::istream& in, const std::string& msg) {
  fail(position(in), msg);
}

/// Validates a header-declared record count before it reaches `reserve`:
/// rejects negative counts, and counts whose records (at least
/// `min_record_bytes` each, counting separators) could not fit in the
/// `remaining` bytes after the count. A negative `remaining` (unknown, as
/// for a non-seekable stream) skips the size bound; the count's sign is
/// still checked. `pos` is the position reported on failure.
template <typename Count>
void check_record_count(long long pos, long long remaining, Count count,
                        std::size_t min_record_bytes,
                        const std::string& what) {
  if (count < 0) {
    fail(pos, what + ": negative count " + std::to_string(count));
  }
  if (count == 0 || remaining < 0) return;
  // Division instead of multiplication: count * min_record_bytes could
  // itself overflow for a hostile 64-bit count.
  if (static_cast<unsigned long long>(count) >
      static_cast<unsigned long long>(remaining) / min_record_bytes) {
    fail(pos, what + ": declared count " + std::to_string(count) +
                  " cannot fit in the " + std::to_string(remaining) +
                  " bytes remaining in the stream");
  }
}

/// The same check with the remaining bytes measured on the stream, which
/// is left at its current position.
template <typename Count>
void check_record_count(std::istream& in, Count count,
                        std::size_t min_record_bytes,
                        const std::string& what) {
  const long long here = position(in);
  long long remaining = -1;
  if (count > 0 && here >= 0) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(here);
    if (end >= here) remaining = static_cast<long long>(end) - here;
  }
  check_record_count(here, remaining, count, min_record_bytes, what);
}

/// Rejects NaN and +/-Inf values read from a stream.
template <typename T>
void require_finite(std::istream& in, T v, const std::string& what) {
  if (!std::isfinite(static_cast<double>(v))) {
    fail(in, what + ": non-finite value");
  }
}

}  // namespace netalign::io
