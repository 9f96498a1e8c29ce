#include "util/rng.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace unicore::util {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  double u = uniform();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Bytes Rng::bytes(std::size_t n) {
  // Each draw fills eight bytes, low byte first: one store per draw,
  // byte-swapped first on a big-endian host. A shorter tail takes a
  // whole draw too.
  Bytes out(n);
  std::size_t i = 0;
  for (; n - i >= 8; i += 8) {
    std::uint64_t v = next();
    if constexpr (std::endian::native == std::endian::big)
      v = __builtin_bswap64(v);
    std::memcpy(out.data() + i, &v, sizeof v);
  }
  if (i < n)
    for (std::uint64_t v = next(); i < n; ++i, v >>= 8)
      out[i] = static_cast<std::uint8_t>(v);
  return out;
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace unicore::util
