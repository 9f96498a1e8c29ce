// A real file's identity (crypto/chunk_digest.h): SHA-256 over a tag,
// the file's size and its chunk digests at 1 MiB. The expected values
// were computed from that definition with Python's hashlib, not from
// this code base:
//
//   tag = b"unicore-file-identity"
//   h = hashlib.sha256(bytes([len(tag)]) + tag + size.to_bytes(8, "big"))
//   for chunk in 1 MiB slices of the content (one empty slice if empty):
//       h.update(hashlib.sha256(chunk).digest())
//
// over the content whose byte i is i % 251 (a period that does not
// divide 1 MiB, so no two chunks are equal).
#include "crypto/chunk_digest.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "uspace/blob.h"

namespace unicore::crypto {
namespace {

util::Bytes pattern(std::size_t size) {
  util::Bytes out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::uint8_t>(i % 251);
  return out;
}

struct KnownAnswer {
  std::size_t size;
  const char* identity;
};

constexpr std::size_t kMiB = 1 << 20;

const KnownAnswer kKnownAnswers[] = {
    {0, "9f689f4b51e725c7d3691063bee292416393fd6470219544140136d80053506b"},
    {1, "5e4adca6c762ded7e00cc047a2609b191d892d27519e142d7b1496670ba1f242"},
    {kMiB - 1,
     "5cc2107e29a13906af4cad226aaedd185d3c43df8528696c1b7eeb45a7d03f60"},
    {kMiB, "01a7e3042edfb0d10b77b6c1eaaa33828d7d095b1d699b5fbe56cb1b19304fa3"},
    {kMiB + 1,
     "7872dc50afbb40d54d6e80e3e9436eb072529cd6051e2823621a4812d23d41f6"},
    {3 * kMiB + 5,
     "525608f50dcac1e0d0fda5042982d6b67b511beb3d814f3c46b77fbfa414e3d0"},
};

// The identity is the same whether the bytes arrive at once (a blob),
// in uneven pieces that straddle chunk boundaries (the hasher fed
// chunk by chunk), or as digests (file_identity over the chunk hashes).
void expect_known_answers() {
  for (const KnownAnswer& answer : kKnownAnswers) {
    util::Bytes content = pattern(answer.size);
    uspace::FileBlob blob = uspace::FileBlob::from_bytes(content);
    EXPECT_EQ(util::hex_encode(blob.checksum()), answer.identity)
        << "size=" << answer.size;

    FileHasher hasher;
    util::ByteView rest(content);
    while (!rest.empty()) {
      std::size_t take = std::min<std::size_t>(rest.size(), 100'003);
      hasher.update(rest.first(take));
      rest = rest.subspan(take);
    }
    EXPECT_EQ(util::hex_encode(hasher.finish()), answer.identity)
        << "size=" << answer.size;

    std::vector<Digest> digests;
    for (std::uint64_t i = 0; i < chunk_count(answer.size, kFileChunkBytes);
         ++i)
      digests.push_back(sha256(util::ByteView(content).subspan(
          i * kFileChunkBytes, chunk_length(answer.size, kFileChunkBytes, i))));
    EXPECT_EQ(hasher.digests(), digests) << "size=" << answer.size;
    EXPECT_EQ(util::hex_encode(file_identity(answer.size, digests)),
              answer.identity)
        << "size=" << answer.size;
  }
}

TEST(FileIdentity, KnownAnswers) {
  set_sha256_acceleration(false);
  expect_known_answers();
  set_sha256_acceleration(true);
  if (sha256_hardware_accelerated()) expect_known_answers();
}

TEST(FileIdentity, CoversTheSizeAndEveryChunkDigestInOrder) {
  EXPECT_EQ(kFileChunkBytes, 1u << 20);
  // An empty file is one empty chunk, like on the wire and in the store.
  FileHasher hasher;
  Digest empty = hasher.finish();
  ASSERT_EQ(hasher.digests().size(), 1u);
  EXPECT_EQ(hasher.digests()[0], sha256(util::ByteView{}));
  EXPECT_EQ(empty, file_identity(0, hasher.digests()));

  Digest a = sha256("a");
  Digest b = sha256("b");
  std::vector<Digest> ab{a, b};
  std::vector<Digest> ba{b, a};
  EXPECT_NE(file_identity(kFileChunkBytes + 1, ab),
            file_identity(kFileChunkBytes + 2, ab));
  EXPECT_NE(file_identity(kFileChunkBytes + 1, ab),
            file_identity(kFileChunkBytes + 1, ba));
  // Not the old whole-content hash either: an identity recorded before
  // it was defined over chunk digests never matches one computed now.
  util::Bytes content = pattern(1000);
  EXPECT_NE(uspace::FileBlob::from_bytes(content).checksum(), sha256(content));
}

}  // namespace
}  // namespace unicore::crypto
