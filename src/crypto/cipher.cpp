#include "crypto/cipher.h"

#include <cstring>

#include "crypto/hmac.h"

namespace unicore::crypto {

namespace {

/// Generic keystream for non-standard key lengths (kept for tests that
/// exercise odd keys); assembles (key || nonce || counter) per block.
void ctr_crypt_generic(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size) {
  std::uint64_t counter = 0;
  std::size_t pos = 0;
  while (pos < size) {
    util::ByteWriter block_input;
    block_input.raw(key.material);
    block_input.u64(nonce);
    block_input.u64(counter++);
    Digest stream = sha256(block_input.bytes());
    std::size_t take = std::min<std::size_t>(stream.size(), size - pos);
    for (std::size_t i = 0; i < take; ++i) data[pos + i] ^= stream[i];
    pos += take;
  }
}

std::size_t put_varint(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Tag over (nonce || blob(ciphertext) || blob(aad)) — the same bytes
/// the original one-shot HMAC consumed, streamed so multi-megabyte
/// transfer chunks are never copied into a MAC input buffer.
Digest record_tag(const SymmetricKey& mac_key, std::uint64_t nonce,
                  util::ByteView ciphertext, util::ByteView aad) {
  HmacSha256 mac(mac_key.material);
  std::uint8_t header[18];  // 8-byte nonce + worst-case varint
  for (int i = 0; i < 8; ++i)
    header[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  std::size_t n = 8 + put_varint(header + 8, ciphertext.size());
  mac.update(util::ByteView(header, n));
  mac.update(ciphertext);
  std::uint8_t aad_len[10];
  mac.update(util::ByteView(aad_len, put_varint(aad_len, aad.size())));
  mac.update(aad);
  return mac.finish();
}

}  // namespace

void ctr_crypt_inplace(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size) {
  if (key.material.size() != 32)
    return ctr_crypt_generic(key, nonce, data, size);
  // key(32) || nonce(8): the backend appends each counter, so the
  // keystream matches the generic path byte for byte.
  std::uint8_t prefix[40];
  std::memcpy(prefix, key.material.data(), 32);
  for (int i = 0; i < 8; ++i)
    prefix[32 + i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  sha256_ctr_xor(prefix, data, size);
}

util::Bytes ctr_crypt(const SymmetricKey& key, std::uint64_t nonce,
                      util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  ctr_crypt_inplace(key, nonce, out.data(), out.size());
  return out;
}

Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, MutableByteView data,
                    util::ByteView aad) {
  ctr_crypt_inplace(enc_key, nonce, data.data(), data.size());
  return record_tag(mac_key, nonce, util::ByteView(data.data(), data.size()),
                    aad);
}

Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, util::Bytes& data,
                    util::ByteView aad) {
  return seal_inplace(enc_key, mac_key, nonce,
                      MutableByteView(data.data(), data.size()), aad);
}

util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          MutableByteView data, const Digest& tag,
                          util::ByteView aad) {
  Digest expected = record_tag(
      mac_key, nonce, util::ByteView(data.data(), data.size()), aad);
  if (!util::constant_time_equal(expected, tag))
    return util::make_error(util::ErrorCode::kAuthenticationFailed,
                            "record MAC verification failed");
  ctr_crypt_inplace(enc_key, nonce, data.data(), data.size());
  return util::Status::ok_status();
}

util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          util::Bytes& data, const Digest& tag,
                          util::ByteView aad) {
  return open_inplace(enc_key, mac_key, nonce,
                      MutableByteView(data.data(), data.size()), tag, aad);
}

SealedRecord seal(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                  std::uint64_t nonce, util::ByteView plaintext,
                  util::ByteView aad) {
  SealedRecord record;
  record.nonce = nonce;
  record.ciphertext.assign(plaintext.begin(), plaintext.end());
  record.tag = seal_inplace(enc_key, mac_key, nonce, record.ciphertext, aad);
  return record;
}

util::Result<util::Bytes> open(const SymmetricKey& enc_key,
                               const SymmetricKey& mac_key,
                               const SealedRecord& record,
                               util::ByteView aad) {
  util::Bytes data = record.ciphertext;
  if (auto status = open_inplace(enc_key, mac_key, record.nonce, data,
                                 record.tag, aad);
      !status.ok())
    return status.error();
  return data;
}

}  // namespace unicore::crypto
