#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define UNICORE_SHA256_X86 1
#include <immintrin.h>
#endif

namespace unicore::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

using State = std::array<std::uint32_t, 8>;

/// A keystream block is the digest of the 48-byte message
/// prefix(40) || counter(8): one compression block once padded.
constexpr std::size_t kPrefixBytes = 40;

/// Builds the padded block for prefix || counter 0: the 0x80
/// terminator at byte 48 and the bit length 384 in the last 8 bytes.
void keystream_template(const std::uint8_t prefix[kPrefixBytes],
                        std::uint8_t block[64]) {
  std::memcpy(block, prefix, kPrefixBytes);
  std::memset(block + kPrefixBytes, 0, 64 - kPrefixBytes);
  block[48] = 0x80;
  block[62] = 0x01;  // 48 * 8 = 384 = 0x0180 bits
  block[63] = 0x80;
}

void compress_block_portable(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i)
    compress_block_portable(state, data + 64 * i);
}

void keystream_portable(const std::uint8_t prefix[kPrefixBytes],
                        std::uint8_t* data, std::size_t size) {
  std::uint8_t block[64];
  keystream_template(prefix, block);
  for (std::uint64_t counter = 0, pos = 0; pos < size; ++counter, pos += 32) {
    for (int i = 0; i < 8; ++i)
      block[kPrefixBytes + i] =
          static_cast<std::uint8_t>(counter >> (56 - 8 * i));
    State state = kInitialState;
    compress_block_portable(state, block);
    std::size_t take = std::min<std::size_t>(32, size - pos);
    for (std::size_t i = 0; i < take; ++i)
      data[pos + i] ^=
          static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
}

#ifdef UNICORE_SHA256_X86
// SHA-NI backend: the same compression function computed by the CPU's
// SHA extension, bit-identical to the portable path. It stays in SSE
// encoding throughout — one 256-bit AVX instruction in this code would
// pay SSE/AVX transition penalties on every block.
#define UNICORE_SHANI __attribute__((target("sha,sse4.1,ssse3")))
#define UNICORE_SHANI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

/// One block in flight: the state as the extension wants it (ABEF and
/// CDGH words, A in the top lane) and four message-schedule registers.
struct NiBlock {
  __m128i abef;
  __m128i cdgh;
  __m128i w[4];
};

/// Rounds 4G..4G+3, plus the message-schedule steps that overlap them:
/// msg2 finishes the words of group G+1, msg1 starts those of group G+3.
template <int G>
UNICORE_SHANI_INLINE void ni_quad(NiBlock& b) {
  __m128i msg = _mm_add_epi32(
      b.w[G % 4],
      _mm_load_si128(reinterpret_cast<const __m128i*>(&kRound[4 * G])));
  b.cdgh = _mm_sha256rnds2_epu32(b.cdgh, b.abef, msg);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = b.w[(G + 1) % 4];
    next = _mm_add_epi32(next,
                         _mm_alignr_epi8(b.w[G % 4], b.w[(G + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, b.w[G % 4]);
  }
  msg = _mm_shuffle_epi32(msg, 0x0E);
  b.abef = _mm_sha256rnds2_epu32(b.abef, b.cdgh, msg);
  if constexpr (G >= 1 && G <= 12)
    b.w[(G + 3) % 4] = _mm_sha256msg1_epu32(b.w[(G + 3) % 4], b.w[G % 4]);
}

/// Rounds 4G..63 of one block.
template <int G>
UNICORE_SHANI_INLINE void ni_rounds(NiBlock& b) {
  ni_quad<G>(b);
  if constexpr (G < 15) ni_rounds<G + 1>(b);
}

/// Rounds 4G..63 of two independent blocks, interleaved so one block's
/// instructions fill the other's latency. Two lanes measured fastest:
/// wider kernels spill the sixteen XMM registers.
template <int G>
UNICORE_SHANI_INLINE void ni_rounds2(NiBlock& x, NiBlock& y) {
  ni_quad<G>(x);
  ni_quad<G>(y);
  if constexpr (G < 15) ni_rounds2<G + 1>(x, y);
}

/// Big-endian message words 4i..4i+3 of `block`, word 4i in lane 0.
UNICORE_SHANI_INLINE __m128i ni_load_words(const std::uint8_t* block, int i) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
      byte_swap);
}

UNICORE_SHANI void compress_shani(State& state, const std::uint8_t* data,
                                  std::size_t blocks) {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t i = 0; i < blocks; ++i, data += 64) {
    NiBlock b{abef, cdgh,
              {ni_load_words(data, 0), ni_load_words(data, 1),
               ni_load_words(data, 2), ni_load_words(data, 3)}};
    ni_rounds<0>(b);
    abef = _mm_add_epi32(abef, b.abef);
    cdgh = _mm_add_epi32(cdgh, b.cdgh);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

/// Adds the initial state to a finished keystream block and XORs its
/// digest into out[0..32). The digest bytes are the big-endian state
/// words A..H: the ABEF/CDGH halves, paired per 64 bits and
/// byte-reversed per 64 bits, give A B C D and E F G H in order.
UNICORE_SHANI_INLINE void ni_xor_digest(const NiBlock& b, __m128i abef_iv,
                                        __m128i cdgh_iv, std::uint8_t* out) {
  const __m128i reverse64 =
      _mm_set_epi64x(0x08090a0b0c0d0e0fULL, 0x0001020304050607ULL);
  __m128i abef = _mm_add_epi32(b.abef, abef_iv);
  __m128i cdgh = _mm_add_epi32(b.cdgh, cdgh_iv);
  __m128i* words = reinterpret_cast<__m128i*>(out);
  __m128i abcd = _mm_shuffle_epi8(_mm_unpackhi_epi64(abef, cdgh), reverse64);
  __m128i efgh = _mm_shuffle_epi8(_mm_unpacklo_epi64(abef, cdgh), reverse64);
  _mm_storeu_si128(words, _mm_xor_si128(_mm_loadu_si128(words), abcd));
  _mm_storeu_si128(words + 1, _mm_xor_si128(_mm_loadu_si128(words + 1), efgh));
}

/// `start` with the counter patched in as message words 10 (high half)
/// and 11 (low half), lanes 2 and 3 of w[2].
UNICORE_SHANI_INLINE NiBlock ni_with_counter(const NiBlock& start,
                                             std::uint64_t counter) {
  NiBlock b = start;
  b.w[2] = _mm_insert_epi64(
      b.w[2], static_cast<long long>(counter << 32 | counter >> 32), 1);
  return b;
}

/// The record keystream, two counters per pass. Only message words 10
/// and 11 (the counter) change between blocks, and rounds 0-7 read
/// words 0-7 alone, so those rounds run once per call and each block
/// starts at round 8.
UNICORE_SHANI void keystream_shani(const std::uint8_t prefix[kPrefixBytes],
                                   std::uint8_t* data, std::size_t size) {
  std::uint8_t block[64];
  keystream_template(prefix, block);
  const __m128i abef_iv =
      _mm_set_epi32(static_cast<int>(kInitialState[0]),
                    static_cast<int>(kInitialState[1]),
                    static_cast<int>(kInitialState[4]),
                    static_cast<int>(kInitialState[5]));
  const __m128i cdgh_iv =
      _mm_set_epi32(static_cast<int>(kInitialState[2]),
                    static_cast<int>(kInitialState[3]),
                    static_cast<int>(kInitialState[6]),
                    static_cast<int>(kInitialState[7]));
  NiBlock start{abef_iv, cdgh_iv,
                {ni_load_words(block, 0), ni_load_words(block, 1),
                 ni_load_words(block, 2), ni_load_words(block, 3)}};
  ni_quad<0>(start);
  ni_quad<1>(start);

  std::uint64_t counter = 0;
  for (std::size_t pos = 0; pos < size; pos += 64, counter += 2) {
    NiBlock x = ni_with_counter(start, counter);
    NiBlock y = ni_with_counter(start, counter + 1);
    ni_rounds2<2>(x, y);
    if (size - pos >= 64) {
      ni_xor_digest(x, abef_iv, cdgh_iv, data + pos);
      ni_xor_digest(y, abef_iv, cdgh_iv, data + pos + 32);
      continue;
    }
    // Partial tail: land both digests in a zeroed buffer and XOR only
    // the bytes the data has left.
    std::uint8_t stream[64] = {};
    ni_xor_digest(x, abef_iv, cdgh_iv, stream);
    ni_xor_digest(y, abef_iv, cdgh_iv, stream + 32);
    for (std::size_t i = 0; pos + i < size; ++i) data[pos + i] ^= stream[i];
  }
}
#endif  // UNICORE_SHA256_X86

/// One backend: bulk compression and the record keystream.
struct Backend {
  void (*compress)(State&, const std::uint8_t*, std::size_t);
  void (*keystream)(const std::uint8_t*, std::uint8_t*, std::size_t);
};

Backend resolve_backend(bool allow_hardware) {
#ifdef UNICORE_SHA256_X86
  if (allow_hardware && __builtin_cpu_supports("sha") &&
      __builtin_cpu_supports("sse4.1") && __builtin_cpu_supports("ssse3"))
    return {&compress_shani, &keystream_shani};
#else
  (void)allow_hardware;
#endif
  return {&compress_portable, &keystream_portable};
}

Backend g_backend = resolve_backend(true);

}  // namespace

bool sha256_hardware_accelerated() {
  return g_backend.compress != &compress_portable;
}

void set_sha256_acceleration(bool enabled) {
  g_backend = resolve_backend(enabled);
}

void sha256_ctr_xor(const std::uint8_t prefix[40], std::uint8_t* data,
                    std::size_t size) {
  if (size > 0) g_backend.keystream(prefix, data, size);
}

Sha256::Sha256() : state_(kInitialState) {}

Sha256& Sha256::update(util::ByteView data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ < buffer_.size()) return *this;
    g_backend.compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every full block in one backend call: the hardware path keeps the
  // state in registers across the whole run.
  std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    g_backend.compress(state_, data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finish() {
  // Padding in one pass: 0x80, zeros, then the 64-bit message length,
  // filling one block or spilling into a second.
  std::uint8_t tail[128];
  std::memcpy(tail, buffer_.data(), buffered_);
  std::size_t length = buffered_ < 56 ? 64 : 128;
  tail[buffered_] = 0x80;
  std::memset(tail + buffered_ + 1, 0, length - 8 - buffered_ - 1);
  for (int i = 0; i < 8; ++i)
    tail[length - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  g_backend.compress(state_, tail, length / 64);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(util::ByteView data) { return Sha256().update(data).finish(); }

Digest sha256(std::string_view s) { return Sha256().update(s).finish(); }

util::Bytes digest_bytes(const Digest& d) {
  return util::Bytes(d.begin(), d.end());
}

std::uint64_t digest_prefix64(const Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | d[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace unicore::crypto
