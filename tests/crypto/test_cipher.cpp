#include "crypto/cipher.h"

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/rng.h"

namespace unicore::crypto {
namespace {

using util::Bytes;

SymmetricKey key_of(std::uint8_t fill) {
  return SymmetricKey{Bytes(32, fill)};
}

TEST(CtrCipher, RoundTripIsIdentity) {
  SymmetricKey key = key_of(0x42);
  Bytes plaintext = util::to_bytes("attack at dawn");
  Bytes ciphertext = ctr_crypt(key, 7, plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(ctr_crypt(key, 7, ciphertext), plaintext);
}

TEST(CtrCipher, EmptyInput) {
  EXPECT_TRUE(ctr_crypt(key_of(1), 0, {}).empty());
}

class CtrSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrSizes, RoundTripAcrossBlockBoundaries) {
  util::Rng rng(GetParam());
  SymmetricKey key{rng.bytes(32)};
  Bytes plaintext = rng.bytes(GetParam());
  Bytes back = ctr_crypt(key, 3, ctr_crypt(key, 3, plaintext));
  EXPECT_EQ(back, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CtrSizes,
                         ::testing::Values(1u, 31u, 32u, 33u, 64u, 100u,
                                           1000u, 4096u));

TEST(CtrCipher, NonceChangesKeystream) {
  SymmetricKey key = key_of(0x11);
  Bytes plaintext(64, 0);  // zero plaintext exposes the raw keystream
  EXPECT_NE(ctr_crypt(key, 1, plaintext), ctr_crypt(key, 2, plaintext));
}

TEST(CtrCipher, KeyChangesKeystream) {
  Bytes plaintext(64, 0);
  EXPECT_NE(ctr_crypt(key_of(1), 5, plaintext),
            ctr_crypt(key_of(2), 5, plaintext));
}

TEST(Seal, OpenRecoversPlaintext) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  Bytes plaintext = util::to_bytes("the abstract job object");
  Bytes aad = util::to_bytes("header");
  SealedRecord record = seal(enc, mac, 9, plaintext, aad);
  auto opened = open(enc, mac, record, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), plaintext);
}

TEST(Seal, TamperedCiphertextRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.ciphertext[0] ^= 0x01;
  auto opened = open(enc, mac, record, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, util::ErrorCode::kAuthenticationFailed);
}

TEST(Seal, TamperedTagRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.tag[31] ^= 0x80;
  EXPECT_FALSE(open(enc, mac, record, {}).ok());
}

TEST(Seal, TamperedNonceRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.nonce = 10;
  EXPECT_FALSE(open(enc, mac, record, {}).ok());
}

TEST(Seal, WrongAadRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record =
      seal(enc, mac, 9, util::to_bytes("payload"), util::to_bytes("aad-1"));
  EXPECT_FALSE(open(enc, mac, record, util::to_bytes("aad-2")).ok());
  EXPECT_TRUE(open(enc, mac, record, util::to_bytes("aad-1")).ok());
}

TEST(Seal, WrongMacKeyRejected) {
  SymmetricKey enc = key_of(0xaa);
  SealedRecord record = seal(enc, key_of(0xbb), 9, util::to_bytes("p"), {});
  EXPECT_FALSE(open(enc, key_of(0xbc), record, {}).ok());
}

// --- in-place variants (the record-layer hot path) ---------------------

TEST(InPlace, CtrMatchesCopyingVariant) {
  util::Rng rng(77);
  SymmetricKey key{rng.bytes(32)};
  for (std::size_t size : {1u, 31u, 32u, 33u, 64u, 1000u, 4096u}) {
    Bytes data = rng.bytes(size);
    Bytes expected = ctr_crypt(key, 42, data);
    Bytes in_place = data;
    ctr_crypt_inplace(key, 42, in_place.data(), in_place.size());
    EXPECT_EQ(in_place, expected) << "size " << size;
  }
}

TEST(InPlace, SealMatchesCopyingVariant) {
  util::Rng rng(78);
  SymmetricKey enc{rng.bytes(32)}, mac{rng.bytes(32)};
  Bytes plaintext = rng.bytes(500);
  Bytes aad = util::to_bytes("hdr");
  SealedRecord copied = seal(enc, mac, 5, plaintext, aad);
  Bytes data = plaintext;
  Digest tag = seal_inplace(enc, mac, 5, data, aad);
  EXPECT_EQ(data, copied.ciphertext);
  EXPECT_EQ(tag, copied.tag);
}

TEST(InPlace, SealOpenRoundTrip) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes plaintext = util::to_bytes("in-place record payload");
  Bytes aad = util::to_bytes("seq=1");
  Bytes data = plaintext;
  Digest tag = seal_inplace(enc, mac, 1, data, aad);
  EXPECT_NE(data, plaintext);
  ASSERT_TRUE(open_inplace(enc, mac, 1, data, tag, aad).ok());
  EXPECT_EQ(data, plaintext);
}

TEST(InPlace, OpenLeavesDataEncryptedOnFailure) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes data = util::to_bytes("payload");
  Digest tag = seal_inplace(enc, mac, 1, data, {});
  Bytes ciphertext = data;
  Digest bad_tag = tag;
  bad_tag[0] ^= 0x01;
  auto status = open_inplace(enc, mac, 1, data, bad_tag, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kAuthenticationFailed);
  // The buffer must not hold plaintext after a failed verification.
  EXPECT_EQ(data, ciphertext);
}

TEST(InPlace, TamperedCiphertextRejected) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes data = util::to_bytes("payload");
  Digest tag = seal_inplace(enc, mac, 1, data, {});
  data[3] ^= 0x10;
  EXPECT_FALSE(open_inplace(enc, mac, 1, data, tag, {}).ok());
}

TEST(InPlace, CrossCompatibleWithCopyingSealOpen) {
  // A record sealed in place opens through the legacy API and vice
  // versa — both ends of a channel may run either code path.
  SymmetricKey enc = key_of(0x41), mac = key_of(0x42);
  Bytes aad = util::to_bytes("dir=0 seq=9");
  Bytes data = util::to_bytes("interop");
  SealedRecord record;
  record.nonce = 9;
  record.tag = seal_inplace(enc, mac, 9, data, aad);
  record.ciphertext = data;
  auto opened = open(enc, mac, record, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), util::to_bytes("interop"));

  SealedRecord legacy = seal(enc, mac, 10, util::to_bytes("reverse"), aad);
  Bytes buffer = legacy.ciphertext;
  ASSERT_TRUE(open_inplace(enc, mac, 10, buffer, legacy.tag, aad).ok());
  EXPECT_EQ(buffer, util::to_bytes("reverse"));
}

// --- known answers: the record layer's bytes on the wire ----------------
//
// Round trips pass even when both ends share a wrong keystream, so these
// pin the exact ciphertext and tag at a fixed key, nonce and plaintext.
// The lengths cover odd block counts, a partial last block and a counter
// past one byte (262,149 bytes is 8,193 keystream blocks). Ciphertexts
// are pinned by their SHA-256; tags verbatim. Python's hashlib and hmac
// give the same values for the same inputs.

constexpr std::uint64_t kKatNonce = 0x0123456789abcdefULL;

SymmetricKey kat_key(std::uint8_t first) {
  Bytes material(32);
  for (std::size_t i = 0; i < material.size(); ++i)
    material[i] = static_cast<std::uint8_t>(first + i);
  return SymmetricKey{material};
}

Bytes kat_plaintext(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return data;
}

const Bytes& kat_aad() {
  static const Bytes aad = util::to_bytes("unicore-record");
  return aad;
}

struct KnownAnswer {
  std::size_t size;
  const char* ciphertext_sha256;
  const char* tag;
};

constexpr KnownAnswer kKnownAnswers[] = {
    {0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "4df1e428bf191c7bdb65e97e1e14454c6bdc9ba15ce96a6b3a459e1abd73fdbc"},
    {1,
     "e7cf46a078fed4fafd0b5e3aff144802b853f8ae459a4f0c14add3314b7cc3a6",
     "4dedd31e9a0d8197438ae9b93d083f30a2dbfcec0a9e6becd2dfe89af2445925"},
    {31,
     "2c7332de92613536b40157edb67bd7aed92180fdee13fe4399e22c3bb4753482",
     "da0b392f79b1593b18f30f70828e415d0146675f3f2c6b2db5bee0856914737f"},
    {32,
     "5d1156a2d6ad783157dd0f3a15a03d3b3a70e03582b636a941ca4f7b3156c397",
     "ba8961c789bb55eeca8a2c67237518dd7cbfc3073612229366631eaa2516a82a"},
    {33,
     "40e768b158ce0ab9b3e28a6df2e7c265961f0db11b8ab75a4d1cf272cda3da23",
     "07d0aef5ca87236663e7749768a6c798ec39e3049b418486e04be7e006662ac1"},
    {63,
     "0fb4d0cae97975a2c157b3e8f2b5b8ef1e1e6f0169b18468324f31c61e206cb9",
     "17bbcbbb83b48de37293e65f5e5932a45dd4d5bee362d6bf6a78759e70be7c81"},
    {64,
     "ec772389cb42ba249e7d147aeae04715cd44a5e2ec403a9b65fc6aedf64c3b63",
     "aa7b10f4d6298682ef1d6cd5325581c9ef2d994f8b546e008b10b453dae901bf"},
    {65,
     "c1551ea21b0fc3186c3f6e7a37a4835b9979c7a0c1e33cc9fe5e74c66de752d2",
     "998ed3fdda5f403cfdc05b8e3e2b52089a2800f9d397cd677fc067b8139ee0fb"},
    {95,
     "369331a349d43ff42f46a404a99fd23bab1b659fe3718d3e619951bed1358ca7",
     "951f36e36354712f14139528b50a059a82f1c3a0a2fc7fa86bedf4b836ea49a4"},
    {96,
     "93f0df71133b2a94fd98be6c06eaa70a1906fae722f73eb18439cd36106a6684",
     "87a2b9ec827cd1334ae9c599c3445197e990897dc4b8a570077d6684bdc9ced2"},
    {97,
     "a38135c059666772787d1708ca1f90c4e540b0684caba3e8b89c79386799958f",
     "fd6afcc6e218f9e713f0d73182f4fac636b76aad259d810851809905e7c4af11"},
    {4096,
     "5fd983e2fc982d5ec96ade0591e2893c73f9866e667bf53fd8f2bdf5208c20d9",
     "55109c2e75180c1fb1b3e23b70942a074eef72834cb4cf1c5c0125f9748337d6"},
    {262149,
     "ec0739e01c4ec2b8ded7a20a9917bb20c9d3617048950f00e2d802a344fb784e",
     "56b311480ca17a124ff3d870169a8e2098280f5e4949c88bf839a6a1ed6579a0"},
};

/// Restores hardware detection when a test that forced the portable
/// backend ends, pass or fail.
struct PortableBackend {
  PortableBackend() { set_sha256_acceleration(false); }
  ~PortableBackend() { set_sha256_acceleration(true); }
};

/// Test-side keystream: SHA-256 over key || nonce || counter (both
/// big-endian), one one-shot hash per 32-byte block.
Bytes reference_ctr(const SymmetricKey& key, std::uint64_t nonce,
                    Bytes data) {
  for (std::size_t pos = 0, counter = 0; pos < data.size();
       pos += 32, ++counter) {
    util::ByteWriter input;
    input.raw(key.material);
    input.u64(nonce);
    input.u64(counter);
    Digest block = sha256(input.bytes());
    for (std::size_t i = 0; i < 32 && pos + i < data.size(); ++i)
      data[pos + i] ^= block[i];
  }
  return data;
}

void expect_known_answers() {
  SymmetricKey enc = kat_key(0x00), mac = kat_key(0x20);
  for (const KnownAnswer& answer : kKnownAnswers) {
    Bytes data = kat_plaintext(answer.size);
    ctr_crypt_inplace(enc, kKatNonce, data.data(), data.size());
    EXPECT_EQ(util::hex_encode(sha256(data)), answer.ciphertext_sha256)
        << "ctr_crypt_inplace, size " << answer.size;

    Bytes sealed = kat_plaintext(answer.size);
    Digest tag = seal_inplace(enc, mac, kKatNonce, sealed, kat_aad());
    EXPECT_EQ(sealed, data) << "seal_inplace ciphertext, size " << answer.size;
    EXPECT_EQ(util::hex_encode(tag), answer.tag)
        << "seal_inplace tag, size " << answer.size;
    ASSERT_TRUE(open_inplace(enc, mac, kKatNonce, sealed, tag, kat_aad()).ok());
    EXPECT_EQ(sealed, kat_plaintext(answer.size));
  }
}

void expect_reference_keystream() {
  SymmetricKey key = kat_key(0x00);
  for (const KnownAnswer& answer : kKnownAnswers) {
    Bytes data = kat_plaintext(answer.size);
    ctr_crypt_inplace(key, kKatNonce, data.data(), data.size());
    EXPECT_EQ(data, reference_ctr(key, kKatNonce, kat_plaintext(answer.size)))
        << "size " << answer.size;
  }
}

TEST(RecordKnownAnswers, CtrAndTagMatchRecordedVectors) {
  expect_known_answers();
}

TEST(RecordKnownAnswers, PortableBackendMatchesRecordedVectors) {
  PortableBackend portable;
  expect_known_answers();
}

TEST(RecordKnownAnswers, KeystreamIsHashOfKeyNonceCounter) {
  expect_reference_keystream();
  PortableBackend portable;
  expect_reference_keystream();
}

}  // namespace
}  // namespace unicore::crypto
