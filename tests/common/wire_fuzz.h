// Mutation fuzz for wire decoders. Everything a decoder reads arrives
// from the network, a journal or a ticket, so it must survive any
// bytes: it returns, reporting malformed input through its reader or
// its Result. Nothing is caught, so an exception fails the test.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "util/bytes.h"
#include "util/log.h"
#include "util/rng.h"

namespace unicore::testing {

/// A decoder under fuzz, called on one input.
using Decode = std::function<void(const util::Bytes&)>;

/// Element counts written over the varints of a valid encoding: far
/// past any input, and (2^62) past anything reserve() can allocate.
inline constexpr std::uint64_t kForgedCounts[] = {std::uint64_t{1} << 40,
                                                   std::uint64_t{1} << 62};

/// `valid` with the varint that starts at `at` replaced by `count`. Any
/// offset works: every count position is one of them.
inline util::Bytes splice_count(const util::Bytes& valid, std::size_t at,
                                std::uint64_t count) {
  std::size_t end = at;
  while (end < valid.size() && (valid[end] & 0x80) != 0) ++end;
  if (end < valid.size()) ++end;
  util::ByteWriter w;
  w.raw(util::ByteView(valid.data(), at));
  w.varint(count);
  w.raw(util::ByteView(valid.data() + end, valid.size() - end));
  return w.take();
}

/// `valid` with the big-endian u32 at `at` replaced by `value`.
inline util::Bytes splice_u32(util::Bytes valid, std::size_t at,
                              std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    valid[at + i] = static_cast<std::uint8_t>(value >> (24 - 8 * i));
  return valid;
}

/// The deterministic mutations of `valid`: every truncation, and each
/// forged count at every offset. Encodings too large for that mutate
/// only the first and last `window` bytes.
inline void for_each_cut_and_count(
    const util::Bytes& valid, const Decode& visit,
    std::size_t window = std::numeric_limits<std::size_t>::max()) {
  for (std::size_t at = 0; at < valid.size(); ++at) {
    if (at >= window && valid.size() - at > window) continue;
    visit(util::Bytes(valid.begin(),
                      valid.begin() + static_cast<std::ptrdiff_t>(at)));
    for (std::uint64_t count : kForgedCounts)
      visit(splice_count(valid, at, count));
  }
}

/// `valid` with one to three random bytes changed.
inline util::Bytes flip_bytes(const util::Bytes& valid, util::Rng& rng) {
  util::Bytes mutated = valid;
  const int flips = 1 + static_cast<int>(rng.below(3));
  for (int f = 0; f < flips; ++f)
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
  return mutated;
}

/// Silences the warning each dropped message logs while a fuzz drops
/// thousands of them.
struct QuietLog {
  util::LogLevel saved = util::Log::level();
  QuietLog() { util::Log::set_level(util::LogLevel::kError); }
  ~QuietLog() { util::Log::set_level(saved); }
};

}  // namespace unicore::testing
