// Chunk bookkeeping: the presence bitmap with its run-length resume
// encoding, and the Assembly that folds verified chunks back into a
// FileBlob whose checksum must match the identity declared at open.
#include "xfer/chunk.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace unicore::xfer {
namespace {

TEST(ChunkBitmap, SetRejectsDuplicatesAndCounts) {
  ChunkBitmap bitmap(5);
  EXPECT_EQ(bitmap.total(), 5u);
  EXPECT_EQ(bitmap.count(), 0u);
  EXPECT_TRUE(bitmap.set(2));
  EXPECT_FALSE(bitmap.set(2));  // duplicate
  EXPECT_TRUE(bitmap.set(0));
  EXPECT_EQ(bitmap.count(), 2u);
  EXPECT_TRUE(bitmap.test(0));
  EXPECT_FALSE(bitmap.test(1));
  EXPECT_FALSE(bitmap.test(99));  // out of range, not UB
  EXPECT_FALSE(bitmap.complete());
}

TEST(ChunkBitmap, RangesRoundTripThroughApply) {
  ChunkBitmap bitmap(10);
  for (std::uint64_t i : {0u, 1u, 2u, 5u, 8u, 9u}) bitmap.set(i);
  std::vector<ChunkRange> ranges = bitmap.ranges();
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (ChunkRange{0, 3}));
  EXPECT_EQ(ranges[1], (ChunkRange{5, 1}));
  EXPECT_EQ(ranges[2], (ChunkRange{8, 2}));

  ChunkBitmap copy(10);
  copy.apply(ranges);
  EXPECT_EQ(copy.count(), 6u);
  EXPECT_EQ(copy.ranges(), ranges);
  EXPECT_EQ(copy.missing(), (std::vector<std::uint64_t>{3, 4, 6, 7}));

  // Ranges from a peer are clamped to the bitmap: a garbled count ends
  // at the last chunk instead of spinning through 2^62 indices.
  copy.apply({ChunkRange{6, 1ull << 62}, ChunkRange{1ull << 62, 3}});
  EXPECT_EQ(copy.missing(), (std::vector<std::uint64_t>{3, 4}));
}

TEST(ChunkBitmap, CompleteWhenEveryChunkPresent) {
  ChunkBitmap bitmap(3);
  bitmap.set(0);
  bitmap.set(1);
  bitmap.set(2);
  EXPECT_TRUE(bitmap.complete());
  EXPECT_TRUE(bitmap.missing().empty());
  ASSERT_EQ(bitmap.ranges().size(), 1u);
  EXPECT_EQ(bitmap.ranges()[0], (ChunkRange{0, 3}));
}

struct AssemblyTest : public ::testing::Test {
  static constexpr std::uint32_t kChunk = kDefaultChunkBytes;

  uspace::FileBlob blob = make_blob();
  Assembly assembly{blob.size(), blob.checksum(), false};

  static uspace::FileBlob make_blob() {
    // Two full chunks plus a short tail.
    std::string content(2 * kChunk + 123, '\0');
    for (std::size_t i = 0; i < content.size(); ++i)
      content[i] = static_cast<char>(i * 31 + 7);
    return uspace::FileBlob::from_string(content);
  }
};

TEST_F(AssemblyTest, AcceptsVerifiesAndFinishes) {
  std::uint64_t total = chunk_count(blob.size());
  ASSERT_EQ(total, 3u);
  EXPECT_EQ(assembly.expected_length(0), kChunk);
  EXPECT_EQ(assembly.expected_length(2), 123u);

  // Out-of-order arrival is fine.
  for (std::uint64_t index : {2u, 0u, 1u}) {
    auto status = assembly.accept(make_chunk(blob, index));
    EXPECT_TRUE(status.ok()) << status.error().to_string();
  }
  EXPECT_TRUE(assembly.complete());
  auto finished = assembly.finish();
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished.value().checksum(), blob.checksum());
  EXPECT_EQ(finished.value().size(), blob.size());
}

TEST_F(AssemblyTest, DuplicateChunkRejected) {
  ASSERT_TRUE(assembly.accept(make_chunk(blob, 0)).ok());
  auto dup = assembly.accept(make_chunk(blob, 0));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(assembly.bitmap().count(), 1u);
}

TEST_F(AssemblyTest, CorruptPayloadRejected) {
  Chunk chunk = make_chunk(blob, 1);
  chunk.data[0] ^= 0xff;  // payload no longer matches the digest
  auto status = assembly.accept(chunk);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(assembly.bitmap().test(1));
}

TEST_F(AssemblyTest, WrongLengthRejected) {
  Chunk chunk = make_chunk(blob, 2);
  chunk.data.push_back(0);
  chunk.length += 1;
  chunk.digest = chunk_digest(chunk.data);  // digest is fine, length isn't
  auto status = assembly.accept(chunk);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kInvalidArgument);
}

TEST_F(AssemblyTest, BufferedBytesTrackPayload) {
  EXPECT_EQ(assembly.buffered_bytes(), 0u);
  ASSERT_TRUE(assembly.accept(make_chunk(blob, 0)).ok());
  EXPECT_EQ(assembly.buffered_bytes(), kChunk);
  ASSERT_TRUE(assembly.accept(make_chunk(blob, 2)).ok());
  EXPECT_EQ(assembly.buffered_bytes(), kChunk + 123u);
}

TEST(AssemblySynthetic, ReassemblesIdentityWithoutBuffering) {
  uspace::FileBlob blob = uspace::FileBlob::synthetic(5 << 20, 77);
  Assembly assembly{blob.size(), blob.checksum(), true};
  std::uint64_t total = chunk_count(blob.size());
  for (std::uint64_t i = 0; i < total; ++i) {
    auto status = assembly.accept(make_chunk(blob, i));
    ASSERT_TRUE(status.ok()) << status.error().to_string();
  }
  EXPECT_EQ(assembly.buffered_bytes(), 0u);  // no payload bytes in memory
  auto finished = assembly.finish();
  ASSERT_TRUE(finished.ok());
  EXPECT_TRUE(finished.value().is_synthetic());
  EXPECT_EQ(finished.value().checksum(), blob.checksum());
  EXPECT_EQ(finished.value().size(), blob.size());
}

TEST(AssemblySynthetic, ForgedSyntheticDigestRejected) {
  // A synthetic chunk whose digest is not bound to the declared file
  // identity must not be accepted.
  uspace::FileBlob blob = uspace::FileBlob::synthetic(2 << 20, 1);
  uspace::FileBlob other = uspace::FileBlob::synthetic(2 << 20, 2);
  Assembly assembly{blob.size(), blob.checksum(), true};
  Chunk forged = make_chunk(other, 0);  // digest binds to `other`
  auto status = assembly.accept(forged);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kInvalidArgument);
}

// ---- the identity check at finish ------------------------------------------
//
// A file of three chunks at the identity granularity. In the forged cases
// every chunk matches its digest, but the identity declared at open is
// another file's of the same size: finish() must refuse it on every
// path, and once the assembly is gone the store holds exactly the
// references it held before the open.

struct FinishIdentity : public ::testing::Test {
  static constexpr std::uint32_t kNative = crypto::kFileChunkBytes;
  static constexpr std::size_t kSize = 2 * kNative + 77;
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Rng(1).bytes(kSize));
  uspace::FileBlob other =
      uspace::FileBlob::from_bytes(util::Rng(2).bytes(kSize));
  std::shared_ptr<store::ChunkStore> chunk_store =
      std::make_shared<store::ChunkStore>();

  /// Feeds `assembly` every chunk of `blob` it still misses.
  void fill(Assembly& assembly) {
    for (std::uint64_t index : assembly.bitmap().missing()) {
      auto status = assembly.accept(make_chunk(blob, index));
      ASSERT_TRUE(status.ok()) << status.error().to_string();
    }
    ASSERT_TRUE(assembly.complete());
  }

  void expect_refused(Assembly& assembly) {
    fill(assembly);
    auto finished = assembly.finish();
    ASSERT_FALSE(finished.ok());
    EXPECT_EQ(finished.error().code, util::ErrorCode::kInvalidArgument);
  }
};

TEST_F(FinishIdentity, ForgedIdentityRefusedInStoreMode) {
  {
    Assembly assembly{kSize, other.checksum(), false};
    assembly.attach_store(chunk_store);
    expect_refused(assembly);
  }
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

TEST_F(FinishIdentity, ForgedIdentityRefusedInBufferMode) {
  Assembly assembly{kSize, other.checksum(), false};
  expect_refused(assembly);
}

TEST_F(FinishIdentity, ForgedIdentityRefusedWhenTheStoreHoldsEveryChunk) {
  auto resident = store::intern_bytes(chunk_store, *blob.bytes(),
                                      blob.checksum(), kNative);
  ASSERT_TRUE(resident.ok());
  const store::StoreStats before = chunk_store->stats();
  {
    Assembly assembly{kSize, other.checksum(), false};
    assembly.attach_store(chunk_store);
    EXPECT_EQ(assembly.satisfy_from_store(blob.chunk_digests()), 3u);
    expect_refused(assembly);
  }
  EXPECT_EQ(chunk_store->stats().total_refs, before.total_refs);
  EXPECT_EQ(chunk_store->stats().physical_bytes, before.physical_bytes);
}

// With every chunk spilled as it lands, the identity check faults none
// back: it reads digests only.
TEST_F(FinishIdentity, StoreModeReadsNoChunkAtTheIdentityGranularity) {
  chunk_store->set_spill_backend(std::make_shared<store::MemorySpillBackend>());
  chunk_store->set_resident_budget(1);
  Assembly assembly{kSize, blob.checksum(), false};
  assembly.attach_store(chunk_store);
  fill(assembly);
  EXPECT_EQ(chunk_store->stats().resident_bytes, 0u);
  std::uint64_t faults = chunk_store->stats().faults;
  auto finished = assembly.finish();
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  EXPECT_EQ(finished.value().checksum(), blob.checksum());
  EXPECT_EQ(chunk_store->stats().faults - faults, 0u);
}

// Buffer mode hands the digests it verified on accept to the blob.
TEST_F(FinishIdentity, BufferModeBlobKeepsTheVerifiedDigests) {
  Assembly assembly{kSize, blob.checksum(), false};
  fill(assembly);
  auto finished = assembly.finish();
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  EXPECT_EQ(finished.value().checksum(), blob.checksum());
  ASSERT_NE(finished.value().bytes(), nullptr);
  EXPECT_EQ(*finished.value().bytes(), *blob.bytes());
  EXPECT_EQ(finished.value().chunk_digests(), blob.chunk_digests());
  EXPECT_EQ(finished.value().held_digests().size(), 3u);
}

}  // namespace
}  // namespace unicore::xfer
