#include "uspace/filespace.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "crypto/chunk_digest.h"

namespace unicore::uspace {
namespace {

TEST(FileBlob, FromBytesChecksumsContent) {
  FileBlob a = FileBlob::from_string("hello");
  FileBlob b = FileBlob::from_string("hello");
  FileBlob c = FileBlob::from_string("world");
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.checksum(), c.checksum());
  ASSERT_NE(a.bytes(), nullptr);
  EXPECT_EQ(util::to_string(*a.bytes()), "hello");
  EXPECT_FALSE(a.is_synthetic());
}

TEST(FileBlob, SyntheticIdentity) {
  FileBlob a = FileBlob::synthetic(1 << 30, 42);
  FileBlob b = FileBlob::synthetic(1 << 30, 42);
  FileBlob c = FileBlob::synthetic(1 << 30, 43);
  FileBlob d = FileBlob::synthetic((1 << 30) + 1, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.checksum(), c.checksum());
  EXPECT_NE(a.checksum(), d.checksum());
  EXPECT_EQ(a.size(), 1u << 30);
  EXPECT_EQ(a.bytes(), nullptr);  // no storage for a gigabyte
  EXPECT_TRUE(a.is_synthetic());
}

TEST(FileBlob, SyntheticAndRealNeverCollide) {
  // Domain separation: a synthetic blob's checksum differs from a real
  // blob of equal size.
  FileBlob synthetic = FileBlob::synthetic(5, 1);
  FileBlob real = FileBlob::from_string("12345");
  EXPECT_NE(synthetic.checksum(), real.checksum());
}

TEST(FileBlob, WireRoundTripBothKinds) {
  for (FileBlob original :
       {FileBlob::from_string("content"), FileBlob::synthetic(777, 9)}) {
    util::ByteWriter w;
    original.encode(w);
    util::ByteReader r(w.bytes());
    FileBlob back = FileBlob::decode(r);
    EXPECT_EQ(back, original);
    EXPECT_EQ(back.is_synthetic(), original.is_synthetic());
    EXPECT_TRUE(r.done());
  }
}

/// A real blob of `size` bytes whose chunks all differ.
FileBlob patterned(std::size_t size) {
  util::Bytes content(size);
  for (std::size_t i = 0; i < size; ++i)
    content[i] = static_cast<std::uint8_t>(i % 251);
  return FileBlob::from_bytes(std::move(content));
}

TEST(FileBlob, HoldsItsDigestsAtTheIdentityGranularityOnly) {
  FileBlob blob = patterned(2 * crypto::kFileChunkBytes + 9);
  std::span<const crypto::Digest> held = blob.held_digests();
  ASSERT_EQ(held.size(), 3u);
  for (std::uint64_t i = 0; i < held.size(); ++i) {
    std::uint32_t length =
        crypto::chunk_length(blob.size(), crypto::kFileChunkBytes, i);
    util::Bytes piece;
    ASSERT_TRUE(
        blob.read_range(i * crypto::kFileChunkBytes, length, piece).ok());
    EXPECT_EQ(held[i], crypto::sha256(piece)) << "chunk " << i;
  }
  EXPECT_EQ(blob.checksum(), crypto::file_identity(blob.size(), held));
  // Copies share the identity and the digests.
  FileBlob copy = blob;
  EXPECT_EQ(copy.held_digests().data(), held.data());
  EXPECT_TRUE(FileBlob::synthetic(5, 1).held_digests().empty());
}

TEST(FileBlob, DecodedChecksumEqualsFromBytes) {
  for (std::size_t size : {std::size_t{0}, std::size_t{5},
                           std::size_t{crypto::kFileChunkBytes + 3}}) {
    FileBlob original = patterned(size);
    util::ByteWriter w;
    original.encode(w);
    util::ByteReader r(w.bytes());
    FileBlob back = FileBlob::decode(r);
    EXPECT_EQ(back.checksum(), original.checksum()) << "size=" << size;
    EXPECT_EQ(back.chunk_digests(), original.chunk_digests());
    EXPECT_EQ(back.held_digests().size(),
              crypto::chunk_count(size, crypto::kFileChunkBytes));
  }
}

// The decoder never copies a real blob's identity off the wire: content
// that is not the file it claims to be is refused like a truncated blob.
TEST(FileBlob, DecodeRefusesContentThatIsNotItsIdentity) {
  FileBlob original = patterned(3000);
  util::ByteWriter w;
  original.encode(w);
  const util::Bytes wire = w.bytes();

  util::Bytes flipped = wire;
  flipped.back() ^= 0x01;  // the last content byte
  util::ByteReader flipped_reader(flipped);
  (void)FileBlob::decode(flipped_reader);
  EXPECT_FALSE(flipped_reader.ok());

  util::Bytes resized = wire;
  resized[1 + 7] += 1;  // the low byte of the declared size
  util::ByteReader resized_reader(resized);
  (void)FileBlob::decode(resized_reader);
  EXPECT_FALSE(resized_reader.ok());

  util::Bytes renamed = wire;
  renamed[1 + 8] ^= 0x80;  // the first byte of the declared identity
  util::ByteReader renamed_reader(renamed);
  (void)FileBlob::decode(renamed_reader);
  EXPECT_FALSE(renamed_reader.ok());
}

TEST(Volume, WriteReadRemove) {
  Volume volume("scratch", 0);
  ASSERT_TRUE(volume.write("a.dat", FileBlob::from_string("data")).ok());
  EXPECT_TRUE(volume.exists("a.dat"));
  auto read = volume.read("a.dat");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 4u);
  EXPECT_TRUE(volume.remove("a.dat").ok());
  EXPECT_FALSE(volume.exists("a.dat"));
  EXPECT_FALSE(volume.read("a.dat").ok());
  EXPECT_FALSE(volume.remove("a.dat").ok());
}

TEST(Volume, QuotaEnforced) {
  Volume volume("small", 100);
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(60, 1)).ok());
  auto status = volume.write("y", FileBlob::synthetic(50, 2));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(volume.used_bytes(), 60u);
  // Exactly filling the quota is allowed.
  EXPECT_TRUE(volume.write("y", FileBlob::synthetic(40, 2)).ok());
  EXPECT_EQ(volume.used_bytes(), 100u);
}

TEST(Volume, ReplaceAccountsCorrectly) {
  Volume volume("v", 100);
  ASSERT_TRUE(volume.write("x", FileBlob::synthetic(80, 1)).ok());
  // Replacing an 80-byte file with a 90-byte one fits: 90 <= 100.
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(90, 2)).ok());
  EXPECT_EQ(volume.used_bytes(), 90u);
  EXPECT_EQ(volume.file_count(), 1u);
  // Removing restores the budget.
  ASSERT_TRUE(volume.remove("x").ok());
  EXPECT_EQ(volume.used_bytes(), 0u);
}

TEST(Volume, OverwriteChargesDeltaNotSum) {
  Volume volume("v", 100);
  ASSERT_TRUE(volume.write("x", FileBlob::synthetic(60, 1)).ok());
  // Naive sum accounting would need 130 bytes; delta accounting only
  // needs the final 70.
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(70, 2)).ok());
  EXPECT_EQ(volume.used_bytes(), 70u);
  // Shrinking an existing file frees budget for a sibling.
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(10, 3)).ok());
  EXPECT_EQ(volume.used_bytes(), 10u);
  EXPECT_TRUE(volume.write("y", FileBlob::synthetic(90, 4)).ok());
  EXPECT_EQ(volume.used_bytes(), 100u);
}

TEST(Volume, OverwriteWithShrinkAtQuotaLimit) {
  // Shrinking must succeed even when the volume is exactly full: the
  // delta is negative, so no headroom check may reject it.
  Volume volume("v", 100);
  ASSERT_TRUE(volume.write("x", FileBlob::synthetic(100, 1)).ok());
  EXPECT_EQ(volume.used_bytes(), 100u);
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(25, 2)).ok());
  EXPECT_EQ(volume.used_bytes(), 25u);
  // Shrink to zero length is a legal file, not a remove.
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(0, 3)).ok());
  EXPECT_EQ(volume.used_bytes(), 0u);
  EXPECT_TRUE(volume.exists("x"));
  EXPECT_EQ(volume.file_count(), 1u);
}

TEST(Volume, DeleteRecreateCycleLeavesNoAccountingDrift) {
  Volume volume("v", 100);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(
        volume.write("x", FileBlob::synthetic(100, std::uint8_t(round))).ok());
    EXPECT_EQ(volume.used_bytes(), 100u);
    // At quota: a sibling is rejected, and the rejection leaves no
    // residue that would break the next round.
    EXPECT_FALSE(volume.write("y", FileBlob::synthetic(1, 9)).ok());
    ASSERT_TRUE(volume.remove("x").ok());
    EXPECT_EQ(volume.used_bytes(), 0u);
  }
  EXPECT_EQ(volume.file_count(), 0u);
}

TEST(Volume, FailedOverwriteLeavesOriginalAndAccountingIntact) {
  Volume volume("v", 100);
  FileBlob original = FileBlob::synthetic(80, 1);
  ASSERT_TRUE(volume.write("x", original).ok());
  auto status = volume.write("x", FileBlob::synthetic(150, 2));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kResourceExhausted);
  // The original file and the accounting both survive the rejection.
  EXPECT_EQ(volume.used_bytes(), 80u);
  auto read = volume.read("x");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().checksum(), original.checksum());
  // The freed headroom is still usable — the books were not corrupted.
  EXPECT_TRUE(volume.write("y", FileBlob::synthetic(20, 3)).ok());
  EXPECT_EQ(volume.used_bytes(), 100u);
}

TEST(Volume, SharedWriteOverwriteAccountsLikeWrite) {
  Volume volume("v", 100);
  auto original = std::make_shared<const FileBlob>(FileBlob::synthetic(40, 1));
  ASSERT_TRUE(volume.write_shared("x", original).ok());
  EXPECT_EQ(volume.used_bytes(), 40u);
  auto bigger = std::make_shared<const FileBlob>(FileBlob::synthetic(90, 2));
  EXPECT_TRUE(volume.write_shared("x", bigger).ok());  // delta fits
  EXPECT_EQ(volume.used_bytes(), 90u);
  auto too_big = std::make_shared<const FileBlob>(FileBlob::synthetic(120, 3));
  auto status = volume.write_shared("x", too_big);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(volume.used_bytes(), 90u);
  auto read = volume.read_shared("x");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value()->checksum(), bigger->checksum());
}

TEST(Volume, ZeroQuotaMeansUnlimited) {
  Volume volume("big", 0);
  EXPECT_TRUE(volume.write("x", FileBlob::synthetic(1ULL << 40, 1)).ok());
}

TEST(Volume, ListWithPrefix) {
  Volume volume("v", 0);
  for (const char* path : {"runs/1/a", "runs/1/b", "runs/2/a", "other"})
    ASSERT_TRUE(volume.write(path, FileBlob::from_string("x")).ok());
  EXPECT_EQ(volume.list("runs/1/").size(), 2u);
  EXPECT_EQ(volume.list("runs/").size(), 3u);
  EXPECT_EQ(volume.list().size(), 4u);
  EXPECT_TRUE(volume.list("nope").empty());
  // Sorted output.
  auto all = volume.list();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(Xspace, VolumeManagement) {
  Xspace xspace;
  auto home = xspace.create_volume("home", 0);
  ASSERT_TRUE(home.ok());
  EXPECT_FALSE(xspace.create_volume("home", 0).ok());  // duplicate
  EXPECT_NE(xspace.find_volume("home"), nullptr);
  EXPECT_EQ(xspace.find_volume("nope"), nullptr);
  (void)xspace.create_volume("archive", 1000);
  EXPECT_EQ(xspace.volume_names().size(), 2u);
}

TEST(CopyInOut, MovesDataAcrossTheUnicoreBoundary) {
  Xspace xspace;
  Volume* home = xspace.create_volume("home", 0).value();
  ASSERT_TRUE(home->write("input.dat", FileBlob::from_string("payload")).ok());

  Uspace uspace("job1", 0);
  // Import: Xspace -> Uspace.
  ASSERT_TRUE(copy_in(xspace, "home", "input.dat", uspace, "in.dat").ok());
  ASSERT_TRUE(uspace.exists("in.dat"));
  EXPECT_EQ(uspace.read("in.dat").value().checksum(),
            home->read("input.dat").value().checksum());

  // Export: Uspace -> Xspace.
  ASSERT_TRUE(uspace.write("result.out", FileBlob::synthetic(999, 3)).ok());
  ASSERT_TRUE(copy_out(uspace, "result.out", xspace, "home",
                       "results/result.out")
                  .ok());
  EXPECT_TRUE(home->exists("results/result.out"));
  EXPECT_EQ(home->read("results/result.out").value(),
            uspace.read("result.out").value());
}

TEST(CopyInOut, ErrorsOnMissingPieces) {
  Xspace xspace;
  Uspace uspace("job", 0);
  EXPECT_FALSE(copy_in(xspace, "nope", "x", uspace, "x").ok());
  (void)xspace.create_volume("home", 0);
  EXPECT_FALSE(copy_in(xspace, "home", "missing", uspace, "x").ok());
  EXPECT_FALSE(copy_out(uspace, "missing", xspace, "home", "x").ok());
  ASSERT_TRUE(uspace.write("f", FileBlob::from_string("x")).ok());
  EXPECT_FALSE(copy_out(uspace, "f", xspace, "nope", "x").ok());
}

TEST(Uspace, QuotaAppliesToJobDirectory) {
  Uspace uspace("job", 50);
  EXPECT_TRUE(uspace.write("a", FileBlob::synthetic(50, 1)).ok());
  EXPECT_FALSE(uspace.write("b", FileBlob::synthetic(1, 2)).ok());
  EXPECT_EQ(uspace.quota_bytes(), 50u);
  EXPECT_EQ(uspace.directory(), "job");
}

}  // namespace
}  // namespace unicore::uspace
