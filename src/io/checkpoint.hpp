// Versioned binary checkpoint container (docs/FORMATS.md "Checkpoint
// format").
//
// A checkpoint is a small set of named binary sections behind an 8-byte
// magic and a schema version. Every section carries a CRC32 of its
// payload and the header carries a CRC32 of itself, so a torn write, a
// truncated file, or a flipped byte is detected at read time instead of
// resuming a solver from garbage. Files are written via temp-file +
// atomic rename, and the previous generation is kept as `<path>.prev`:
// a reader that finds the newest generation corrupt falls back to the
// previous one (read_checkpoint_with_fallback), so a crash *during*
// checkpointing never loses the run.
//
// The payload encoding is deliberately dumb: native-endian fixed-width
// scalars and length-prefixed arrays through ByteWriter/ByteReader.
// Checkpoints are same-machine restart artifacts (the kill-resume
// harness), not an interchange format; FORMATS.md documents the layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace netalign::io {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the same checksum zlib
/// uses. `seed` chains incremental computations.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// Append-only little buffer builder for checkpoint payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  /// Raw 8-byte doubles: the round-trip is bit-exact, which is what makes
  /// resumed solver runs reproduce the uninterrupted run exactly.
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  /// Element count followed by the raw element bytes.
  template <typename T>
  void pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    // resize + memcpy rather than insert(end, p, p + n): GCC 12 reports a
    // false -Wstringop-overflow on the inlined insert of a 4-byte value.
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a checkpoint payload. Any read past the end
/// throws std::runtime_error -- a CRC-valid section can still disagree
/// with what the consumer expects (e.g. a hand-edited file), and the
/// reader must never walk off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : data_(data.data(), data.size()) {}

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int32_t i32() { return scalar<std::int32_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s;
    if (n != 0) {
      s.assign(reinterpret_cast<const char*>(data_.data() + pos_),
               static_cast<std::size_t>(n));
    }
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Exactly `n` raw bytes (for payloads whose length is declared
  /// elsewhere, e.g. the section table).
  std::vector<std::uint8_t> raw_bytes(std::uint64_t n) {
    need(n);
    std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(
                                                    pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }
  template <typename T>
  std::vector<T> pod_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    // Divide instead of multiplying so a hostile count cannot overflow.
    if (n > (data_.size() - pos_) / sizeof(T)) {
      throw std::runtime_error("checkpoint: payload truncated");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) {  // memcpy is declared nonnull; an empty vector's data()
                   // may be null, which UBSan rejects even for length 0
      std::memcpy(v.data(), data_.data() + pos_,
                  static_cast<std::size_t>(n) * sizeof(T));
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return v;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw std::runtime_error("checkpoint: payload truncated");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

struct CheckpointSection {
  std::string name;
  std::vector<std::uint8_t> payload;
};

/// File layout version; bump on any incompatible payload change. Readers
/// reject versions they do not know.
inline constexpr std::uint32_t kCheckpointVersion = 1;

struct Checkpoint {
  std::string solver;  ///< producing solver tag ("bp", "mr", ...)
  std::vector<CheckpointSection> sections;

  CheckpointSection& add(std::string name);
  /// nullptr when absent.
  [[nodiscard]] const CheckpointSection* find(std::string_view name) const;
  /// Throws std::runtime_error naming the missing section.
  [[nodiscard]] const CheckpointSection& section(std::string_view name) const;
};

/// Render the full file image (header + CRC-protected sections).
[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const Checkpoint& c);

/// Parse and validate a file image: magic, version, header CRC, section
/// count/length sanity, and every section CRC. Throws std::runtime_error
/// describing the first violation.
[[nodiscard]] Checkpoint deserialize_checkpoint(
    std::span<const std::uint8_t> bytes);

/// Atomically replace `path` with `bytes`: write `<path>.tmp`, flush, then
/// rename any existing `path` to `<path>.prev` and the temp file to
/// `path`. After every successful call the previous generation survives
/// at `<path>.prev`.
void write_checkpoint_bytes(const std::string& path,
                            std::span<const std::uint8_t> bytes);

inline void write_checkpoint_file(const std::string& path,
                                  const Checkpoint& c) {
  const std::vector<std::uint8_t> bytes = serialize_checkpoint(c);
  write_checkpoint_bytes(path, bytes);
}

/// Read + validate one generation. Throws on missing or corrupt files.
[[nodiscard]] Checkpoint read_checkpoint_file(const std::string& path);

/// Read `path`; when it is missing or fails validation, fall back to
/// `<path>.prev`. `used_previous` (optional) reports which generation
/// loaded. Throws only when both generations are unusable, with both
/// failure messages.
[[nodiscard]] Checkpoint read_checkpoint_with_fallback(
    const std::string& path, bool* used_previous = nullptr);

}  // namespace netalign::io
