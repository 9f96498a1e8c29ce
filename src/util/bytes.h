// Byte-buffer primitives shared by every wire format in the code base
// (ASN.1/DER, the AJO codec, the network record layer).
//
// All multi-byte integers are written big-endian so that encodings are
// byte-order independent and hash-stable across platforms.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace unicore::util {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Converts a string to its raw byte representation.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Converts raw bytes back to a string (no encoding validation).
inline std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Sequential big-endian writer over an owned, growing buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-sizes the buffer for `n` further bytes (hot paths that know the
  /// frame size up front avoid the vector growth doublings).
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }

  void u64(std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v);

  /// Unsigned LEB128-style variable-length integer; compact for the many
  /// small counts in AJO graphs.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void raw(ByteView b) { append(buf_, b); }

  /// Appends `n` zero bytes (padding; models wire cost of content that
  /// is not materialised in memory).
  void pad(std::size_t n) { buf_.resize(buf_.size() + n, 0); }

  /// Length-prefixed (varint) byte string.
  void blob(ByteView b) {
    varint(b.size());
    raw(b);
  }

  /// Length-prefixed (varint) UTF-8 string.
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Count-prefixed (varint) list of strings.
  void strings(const std::vector<std::string>& list) {
    varint(list.size());
    for (const std::string& s : list) str(s);
  }

  /// Count-prefixed (varint) list of values written by T::encode.
  template <typename T>
  void list(const std::vector<T>& items) {
    varint(items.size());
    for (const T& item : items) item.encode(*this);
  }

  void boolean(bool b) { u8(b ? 1 : 0); }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Deepest nesting a recursive decoder accepts, counting the outermost
/// value as 0 (AJO job groups, Outcome trees, DER constructed values).
/// Deeper input is malformed, so a crafted message cannot exhaust the
/// stack.
constexpr std::size_t kMaxNesting = 64;

/// Sequential reader over a borrowed buffer. The first failure sticks: a
/// read past the end, a varint longer than 64 bits or not in its one
/// shortest form, a blob or count larger than the bytes left, or a
/// decoder's own fail(). Later reads
/// return zero values and consume nothing; a decoder returns its value
/// and its caller checks the reader once before acting on what it read.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::uint64_t varint();
  bool boolean() { return u8() != 0; }

  /// Reads `n` raw bytes.
  Bytes raw(std::size_t n);
  /// Skips `n` bytes without copying.
  void skip(std::size_t n) {
    if (need(n)) pos_ += n;
  }
  /// Reads a varint-length-prefixed byte string (the length as count()).
  Bytes blob();
  /// Reads a varint-length-prefixed UTF-8 string.
  std::string str();
  /// Reads the varint element count of a list. Every element takes at
  /// least one byte, so a count beyond the remaining input is malformed
  /// and refused before it can size an allocation.
  std::uint64_t count();
  /// Reads a count-prefixed list of strings.
  std::vector<std::string> strings();
  /// Reads a count-prefixed list of values with T::decode.
  template <typename T>
  std::vector<T> list() {
    std::uint64_t n = count();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n && ok(); ++i)
      out.push_back(T::decode(*this));
    return out;
  }
  /// Reads exactly N raw bytes (digests, MAC tags).
  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    std::array<std::uint8_t, N> out{};
    if (!need(N)) return out;
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), N,
                out.begin());
    pos_ += N;
    return out;
  }

  /// Records a failure; only the first one is kept.
  void fail(Error error);

  bool ok() const { return status_.ok(); }
  /// The first failure, or an error when input remains unread.
  Status finish() const;

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  /// True when `n` more bytes can be read; else fails the reader.
  bool need(std::size_t n);
  /// A big-endian unsigned integer of sizeof(T) bytes.
  template <typename T>
  T big_endian();

  ByteView data_;
  std::size_t pos_ = 0;
  Status status_;
};

/// Lowercase hex encoding, e.g. for fingerprints and log output.
std::string hex_encode(ByteView b);

/// Inverse of hex_encode; throws std::invalid_argument on malformed input.
Bytes hex_decode(std::string_view s);

/// Constant-time byte comparison for MAC/signature checks.
bool constant_time_equal(ByteView a, ByteView b);

}  // namespace unicore::util
