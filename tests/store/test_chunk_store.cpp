#include "store/chunk_store.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "uspace/filespace.h"
#include "xfer/wire.h"

namespace unicore::store {
namespace {

/// The store's one chunk size.
constexpr std::size_t kChunk = kDefaultStoreChunkBytes;

util::Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  // Non-repeating over any chunk size: a tiny LCG, so equal-content
  // chunks only arise when the test makes them equal on purpose.
  util::Bytes out(n);
  std::uint32_t x = 0x9e3779b9u + seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1103515245u + 12345u;
    out[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

// ---- digest cross-check: store and wire must key chunks identically --------

TEST(ChunkDigest, StoreAndWireComputeIdenticalDigests) {
  util::Bytes payload = pattern_bytes(1000, 3);
  EXPECT_EQ(crypto::chunk_content_digest(payload),
            xfer::chunk_digest(payload));

  crypto::Digest checksum = crypto::sha256(payload);
  for (std::uint64_t index : {0ull, 1ull, 77ull}) {
    EXPECT_EQ(crypto::synthetic_chunk_digest(checksum, index, 4096),
              xfer::synthetic_chunk_digest(checksum, index, 4096));
  }
}

TEST(ChunkDigest, StoreAndWireCountChunksIdentically) {
  for (std::uint64_t size : {0ull, 1ull, 65536ull, 65537ull, 1ull << 30}) {
    EXPECT_EQ(crypto::chunk_count(size, 65536), xfer::chunk_count(size, 65536))
        << "size=" << size;
  }
  EXPECT_EQ(crypto::chunk_length(100, 64, 0), 64u);
  EXPECT_EQ(crypto::chunk_length(100, 64, 1), 36u);
  EXPECT_EQ(crypto::chunk_length(0, 64, 0), 0u);
}

// ---- refcounting and dedup -------------------------------------------------

TEST(ChunkStore, DedupStoresPayloadOnce) {
  ChunkStore store;
  util::Bytes data = pattern_bytes(500, 1);
  crypto::Digest digest = crypto::chunk_content_digest(data);

  ASSERT_TRUE(store.add_chunk(digest, data).ok());
  ASSERT_TRUE(store.add_chunk(digest, data).ok());
  EXPECT_EQ(store.refcount(digest), 2u);
  EXPECT_EQ(store.stats().chunks, 1u);
  EXPECT_EQ(store.stats().physical_bytes, 500u);
  EXPECT_EQ(store.stats().logical_bytes, 1000u);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  EXPECT_EQ(store.stats().dedup_bytes_saved, 500u);
}

TEST(ChunkStore, ReleaseFreesAtZeroAndReclaimsExactly) {
  ChunkStore store;
  util::Bytes data = pattern_bytes(256, 2);
  crypto::Digest digest = crypto::chunk_content_digest(data);
  ASSERT_TRUE(store.add_chunk(digest, data).ok());
  ASSERT_TRUE(store.add_ref(digest));

  store.release(digest);
  EXPECT_TRUE(store.contains(digest));
  EXPECT_EQ(store.stats().physical_bytes, 256u);
  store.release(digest);
  EXPECT_FALSE(store.contains(digest));
  EXPECT_EQ(store.stats().physical_bytes, 0u);
  EXPECT_EQ(store.stats().chunks, 0u);
  EXPECT_EQ(store.stats().reclaimed_chunks, 1u);
  EXPECT_EQ(store.stats().reclaimed_bytes, 256u);
  // Double release of a freed chunk is a no-op, not corruption.
  store.release(digest);
  EXPECT_EQ(store.stats().reclaimed_chunks, 1u);
}

TEST(ChunkStore, AddRefRefusesAbsentChunks) {
  ChunkStore store;
  crypto::Digest digest{};
  EXPECT_FALSE(store.add_ref(digest));
  EXPECT_EQ(store.refcount(digest), 0u);
}

TEST(ChunkStore, DigestCollisionWithDifferentShapeRejected) {
  ChunkStore store;
  util::Bytes data = pattern_bytes(128, 9);
  crypto::Digest digest = crypto::chunk_content_digest(data);
  ASSERT_TRUE(store.add_chunk(digest, data).ok());
  // Same digest re-declared as synthetic, or with another length: refuse.
  EXPECT_FALSE(store.add_synthetic_chunk(digest, 128).ok());
  util::Bytes other = pattern_bytes(64, 9);
  EXPECT_FALSE(store.add_chunk(digest, other).ok());
  EXPECT_EQ(store.refcount(digest), 1u);
}

TEST(ChunkStore, SyntheticChunksOccupyNoPhysicalBytes) {
  ChunkStore store;
  crypto::Digest checksum = crypto::sha256(std::string_view("dataset"));
  crypto::Digest digest = crypto::synthetic_chunk_digest(checksum, 0, 1 << 20);
  ASSERT_TRUE(store.add_synthetic_chunk(digest, 1 << 20).ok());
  ASSERT_TRUE(store.add_synthetic_chunk(digest, 1 << 20).ok());  // dedup
  EXPECT_EQ(store.stats().physical_bytes, 0u);
  EXPECT_EQ(store.stats().logical_bytes, 2u << 20);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  EXPECT_FALSE(store.read(digest).ok());  // no payload to read
  EXPECT_EQ(store.chunk_length(digest).value(), 1u << 20);
}

// ---- spill tier ------------------------------------------------------------

TEST(ChunkStore, EvictsColdChunksUnderBudgetAndFaultsBack) {
  ChunkStore store(ChunkStore::Config{.resident_budget_bytes = 1000});
  auto spill = std::make_shared<MemorySpillBackend>();
  store.set_spill_backend(spill);

  std::vector<crypto::Digest> digests;
  for (std::uint8_t i = 0; i < 4; ++i) {
    util::Bytes data = pattern_bytes(400, i);
    digests.push_back(crypto::chunk_content_digest(data));
    ASSERT_TRUE(store.add_chunk(digests.back(), data).ok());
  }
  // 1600 bytes written against a 1000-byte budget: the two coldest
  // chunks were spilled.
  EXPECT_EQ(store.stats().resident_bytes, 800u);
  EXPECT_EQ(store.stats().spilled_bytes, 800u);
  EXPECT_EQ(store.stats().physical_bytes, 1600u);
  EXPECT_EQ(store.stats().spills, 2u);
  EXPECT_EQ(spill->chunks(), 2u);

  // Reading a spilled chunk faults it back (and pushes another out).
  auto read = store.read(digests[0]);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern_bytes(400, 0));
  EXPECT_EQ(store.stats().faults, 1u);
  EXPECT_EQ(store.stats().resident_bytes, 800u);
  EXPECT_EQ(store.stats().physical_bytes, 1600u);

  // Every chunk still reads correctly regardless of tier.
  for (std::uint8_t i = 0; i < 4; ++i)
    EXPECT_EQ(store.read(digests[i]).value(), pattern_bytes(400, i));
}

TEST(ChunkStore, ReleasingSpilledChunkErasesColdCopy) {
  ChunkStore store(ChunkStore::Config{.resident_budget_bytes = 100});
  auto spill = std::make_shared<MemorySpillBackend>();
  store.set_spill_backend(spill);

  util::Bytes a = pattern_bytes(90, 1);
  util::Bytes b = pattern_bytes(90, 2);
  crypto::Digest da = crypto::chunk_content_digest(a);
  crypto::Digest db = crypto::chunk_content_digest(b);
  ASSERT_TRUE(store.add_chunk(da, a).ok());
  ASSERT_TRUE(store.add_chunk(db, b).ok());
  ASSERT_EQ(spill->chunks(), 1u);  // `a` went cold

  store.release(da);
  EXPECT_EQ(spill->chunks(), 0u);
  EXPECT_EQ(store.stats().spilled_bytes, 0u);
  EXPECT_EQ(store.stats().physical_bytes, 90u);
  EXPECT_EQ(store.stats().reclaimed_bytes, 90u);
}

TEST(ChunkStore, ShrinkingBudgetEvictsImmediately) {
  ChunkStore store;
  auto spill = std::make_shared<MemorySpillBackend>();
  store.set_spill_backend(spill);
  util::Bytes data = pattern_bytes(512, 5);
  ASSERT_TRUE(store.add_chunk(crypto::chunk_content_digest(data), data).ok());
  EXPECT_EQ(store.stats().resident_bytes, 512u);
  store.set_resident_budget(100);
  EXPECT_EQ(store.stats().resident_bytes, 0u);
  EXPECT_EQ(store.stats().spilled_bytes, 512u);
}

TEST(ChunkStore, FaultBackUnderABudgetBelowOneChunkReturnsItsBytes) {
  ChunkStore store(ChunkStore::Config{.resident_budget_bytes = 1});
  store.set_spill_backend(std::make_shared<MemorySpillBackend>());
  util::Bytes data = pattern_bytes(400, 3);
  crypto::Digest digest = crypto::chunk_content_digest(data);
  ASSERT_TRUE(store.add_chunk(digest, data).ok());
  ASSERT_EQ(store.stats().spilled_bytes, 400u);
  // The fault-back spills the chunk again at once; the read still
  // returns its bytes.
  auto read = store.read(digest);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
  EXPECT_EQ(store.stats().faults, 1u);
  EXPECT_EQ(store.stats().resident_bytes, 0u);
}

/// A cold tier whose reads come back damaged: one byte flipped, or one
/// byte short.
class DamagingSpillBackend : public MemorySpillBackend {
 public:
  enum class Damage { kNone, kFlip, kTruncate };
  Damage damage = Damage::kNone;

  util::Result<util::Bytes> read(const crypto::Digest& digest) override {
    auto data = MemorySpillBackend::read(digest);
    if (!data.ok() || damage == Damage::kNone) return data;
    util::Bytes bytes = std::move(data).value();
    if (damage == Damage::kFlip)
      bytes[bytes.size() / 2] ^= 0x01;
    else
      bytes.pop_back();
    return bytes;
  }
};

/// Four chunks interned against a budget of two and a half: chunks 0
/// and 1 are spilled.
struct DamagedSpill {
  static constexpr std::uint64_t kBudget = 5 * kChunk / 2;
  std::shared_ptr<ChunkStore> store = std::make_shared<ChunkStore>(
      ChunkStore::Config{.resident_budget_bytes = kBudget});
  std::shared_ptr<DamagingSpillBackend> spill =
      std::make_shared<DamagingSpillBackend>();
  util::Bytes content = pattern_bytes(4 * kChunk, 6);
  std::shared_ptr<const PinnedBlob> pinned;

  DamagedSpill() {
    store->set_spill_backend(spill);
    pinned = intern_bytes(store, content, crypto::sha256(content), kChunk)
                 .value();
  }
};

TEST(ChunkStore, FaultBackRefusesBytesThatAreNotTheChunk) {
  DamagedSpill env;
  ASSERT_EQ(env.spill->chunks(), 2u);
  const crypto::Digest spilled = env.pinned->manifest().chunks[0];
  const StoreStats before = env.store->stats();
  for (auto damage : {DamagingSpillBackend::Damage::kFlip,
                      DamagingSpillBackend::Damage::kTruncate}) {
    env.spill->damage = damage;
    auto read = env.store->read(spilled);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, util::ErrorCode::kInternal);
    // The chunk stays spilled and the accounting stays exact.
    EXPECT_EQ(env.store->stats().faults, before.faults);
    EXPECT_EQ(env.store->stats().spilled_bytes, before.spilled_bytes);
    EXPECT_EQ(env.store->stats().resident_bytes, before.resident_bytes);
    EXPECT_EQ(env.spill->chunks(), 2u);
    // A file read over that chunk fails instead of returning wrong bytes.
    util::Bytes out;
    EXPECT_FALSE(env.pinned->read_range(100, 50, out).ok());
  }
  // A clean tier faults the same chunks back intact.
  env.spill->damage = DamagingSpillBackend::Damage::kNone;
  util::Bytes out;
  ASSERT_TRUE(env.pinned->read_range(0, env.content.size(), out).ok());
  EXPECT_EQ(out, env.content);
  EXPECT_GT(env.store->stats().faults, before.faults);
  env.pinned.reset();
  EXPECT_EQ(env.store->stats().physical_bytes, 0u);
  EXPECT_EQ(env.spill->chunks(), 0u);
}

// A damaged spilled chunk is repaired when its own bytes arrive again;
// bytes that are not the chunk change nothing.
TEST(ChunkStore, ReAddingASpilledChunkRepairsADamagedCopy) {
  DamagedSpill env;
  env.spill->damage = DamagingSpillBackend::Damage::kFlip;
  const crypto::Digest spilled = env.pinned->manifest().chunks[0];
  const util::Bytes good(env.content.begin(), env.content.begin() + kChunk);
  ASSERT_FALSE(env.store->read(spilled).ok());

  const StoreStats before = env.store->stats();
  const auto expect_unchanged = [&] {
    const StoreStats now = env.store->stats();
    EXPECT_EQ(now.total_refs, before.total_refs);
    EXPECT_EQ(now.logical_bytes, before.logical_bytes);
    EXPECT_EQ(now.physical_bytes, before.physical_bytes);
    EXPECT_EQ(now.resident_bytes, before.resident_bytes);
    EXPECT_EQ(now.spilled_bytes, before.spilled_bytes);
    EXPECT_EQ(now.dedup_hits, before.dedup_hits);
    EXPECT_EQ(env.store->refcount(spilled), 1u);
    EXPECT_EQ(env.spill->chunks(), 2u);
  };
  util::Bytes wrong = good;
  wrong[7] ^= 0x01;
  EXPECT_FALSE(env.store->add_chunk(spilled, wrong).ok());
  expect_unchanged();
  EXPECT_FALSE(env.store->read(spilled).ok());

  ASSERT_TRUE(env.store->add_chunk(spilled, good).ok());
  EXPECT_EQ(env.store->refcount(spilled), 2u);
  auto read = env.store->read(spilled);
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), good);
  util::Bytes out;
  ASSERT_TRUE(env.pinned->read_range(0, kChunk, out).ok());
  EXPECT_EQ(out, good);
  // A dedup hit, not a fault: the repaired chunk is resident, and the
  // budget spilled the coldest resident chunk in its place.
  const StoreStats after = env.store->stats();
  EXPECT_EQ(after.total_refs, before.total_refs + 1);
  EXPECT_EQ(after.logical_bytes, before.logical_bytes + kChunk);
  EXPECT_EQ(after.physical_bytes, before.physical_bytes);
  EXPECT_EQ(after.dedup_hits, before.dedup_hits + 1);
  EXPECT_EQ(after.faults, before.faults);
  EXPECT_EQ(after.resident_bytes + after.spilled_bytes, after.physical_bytes);
  EXPECT_LE(after.resident_bytes, DamagedSpill::kBudget);
  EXPECT_EQ(env.spill->chunks(), after.spilled_bytes / kChunk);

  env.store->release(spilled);
  env.pinned.reset();
  EXPECT_EQ(env.store->stats().total_refs, 0u);
  EXPECT_EQ(env.store->stats().physical_bytes, 0u);
  EXPECT_EQ(env.store->stats().resident_bytes, 0u);
  EXPECT_EQ(env.store->stats().spilled_bytes, 0u);
  EXPECT_EQ(env.spill->chunks(), 0u);
}

// A stored blob whose chunk cannot be read still encodes a well-framed
// blob, and the receiver's decoder refuses it.
TEST(ChunkStore, UnreadableStoredChunkEncodesABlobTheDecoderRefuses) {
  DamagedSpill env;
  uspace::FileBlob blob = uspace::FileBlob::from_pinned(env.pinned);
  util::ByteWriter clean;
  blob.encode(clean);
  env.spill->damage = DamagingSpillBackend::Damage::kFlip;
  util::ByteWriter damaged;
  blob.encode(damaged);
  EXPECT_EQ(damaged.size(), clean.size());
  util::ByteReader r(damaged.bytes());
  (void)uspace::FileBlob::decode(r);
  EXPECT_FALSE(r.ok());
}

// ---- interning and pins ----------------------------------------------------

TEST(ChunkStore, InternBytesChunksAndPinsContent) {
  auto store = std::make_shared<ChunkStore>();
  const std::size_t size = 3 * kChunk + 1000;
  util::Bytes content = pattern_bytes(size, 7);
  crypto::Digest checksum = crypto::sha256(content);
  auto pinned = intern_bytes(store, content, checksum, kChunk);
  ASSERT_TRUE(pinned.ok());
  const BlobManifest& manifest = pinned.value()->manifest();
  EXPECT_EQ(manifest.size, size);
  EXPECT_EQ(manifest.chunks.size(), 4u);  // three full chunks and a tail
  EXPECT_EQ(store->stats().physical_bytes, size);

  // read_range crosses chunk boundaries correctly.
  util::Bytes out;
  ASSERT_TRUE(pinned.value()->read_range(kChunk / 2, 2 * kChunk, out).ok());
  EXPECT_EQ(out, util::Bytes(content.begin() + kChunk / 2,
                             content.begin() + 5 * kChunk / 2));

  // Dropping the pin releases every chunk: physical bytes return to 0.
  pinned = util::make_error(util::ErrorCode::kInternal, "drop");
  EXPECT_EQ(store->stats().physical_bytes, 0u);
  EXPECT_EQ(store->stats().chunks, 0u);
}

// The store has one chunk size; interning at any other stores nothing.
TEST(ChunkStore, InternRefusesEveryOtherChunkSize) {
  auto store = std::make_shared<ChunkStore>();
  util::Bytes content = pattern_bytes(3000, 2);
  crypto::Digest checksum = crypto::sha256(content);
  for (std::uint32_t chunk_bytes : {0u, 64u << 10, 0xffffffffu}) {
    SCOPED_TRACE(chunk_bytes);
    auto real = intern_bytes(store, content, checksum, chunk_bytes);
    ASSERT_FALSE(real.ok());
    EXPECT_EQ(real.error().code, util::ErrorCode::kInvalidArgument);
    auto synthetic = intern_synthetic(store, 5 * kChunk, checksum, chunk_bytes);
    ASSERT_FALSE(synthetic.ok());
    EXPECT_EQ(synthetic.error().code, util::ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(store->stats().chunks, 0u);
  EXPECT_EQ(store->stats().total_refs, 0u);
}

TEST(ChunkStore, InternSameContentTwiceSharesEveryChunk) {
  auto store = std::make_shared<ChunkStore>();
  util::Bytes content = pattern_bytes(4 * kChunk, 4);
  crypto::Digest checksum = crypto::sha256(content);
  auto first = intern_bytes(store, content, checksum, kChunk);
  auto second = intern_bytes(store, content, checksum, kChunk);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store->stats().physical_bytes, 4 * kChunk);  // stored once
  EXPECT_EQ(store->stats().logical_bytes, 8 * kChunk);   // charged twice
  EXPECT_EQ(store->stats().dedup_hits, 4u);  // all 4 chunks shared
  EXPECT_EQ(store->stats().dedup_bytes_saved, 4 * kChunk);
}

TEST(ChunkStore, InternSyntheticIsZeroFootprint) {
  auto store = std::make_shared<ChunkStore>();
  crypto::Digest checksum = crypto::sha256(std::string_view("big"));
  auto pinned = intern_synthetic(store, 10ull << 30, checksum, kChunk);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value()->manifest().chunks.size(), 10u * 1024);
  EXPECT_EQ(store->stats().physical_bytes, 0u);
  EXPECT_EQ(store->stats().logical_bytes, 10ull << 30);
}

// ---- FileBlob plumbing -----------------------------------------------------

TEST(ChunkStore, StoredBlobBehavesLikeItsSource) {
  auto store = std::make_shared<ChunkStore>();
  auto inline_blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::from_bytes(pattern_bytes(2 * kChunk + 188, 8)));
  auto stored = uspace::intern_blob(store, inline_blob);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->is_stored());
  EXPECT_FALSE(stored->is_synthetic());
  EXPECT_EQ(stored->size(), inline_blob->size());
  EXPECT_EQ(stored->checksum(), inline_blob->checksum());
  EXPECT_EQ(stored->bytes(), nullptr);  // no inline copy

  util::Bytes round_trip;
  ASSERT_TRUE(stored->read_range(0, stored->size(), round_trip).ok());
  EXPECT_EQ(round_trip, *inline_blob->bytes());

  // Same per-chunk digests as the source.
  EXPECT_EQ(stored->chunk_digests(), inline_blob->chunk_digests());
  // Wire encoding carries the real bytes (decodes back to equal content).
  util::ByteWriter w;
  stored->encode(w);
  util::ByteReader r(w.bytes());
  uspace::FileBlob decoded = uspace::FileBlob::decode(r);
  EXPECT_EQ(decoded.checksum(), inline_blob->checksum());
}

TEST(ChunkStore, VolumeOverwriteAndDeleteRecreateKeepPhysicalExact) {
  auto store = std::make_shared<ChunkStore>();
  uspace::Volume volume("v", 0);
  util::Bytes content = pattern_bytes(2 * kChunk, 6);
  auto blob = [&](const util::Bytes& bytes) {
    return uspace::intern_blob(store, std::make_shared<const uspace::FileBlob>(
                                          uspace::FileBlob::from_bytes(bytes)));
  };

  ASSERT_TRUE(volume.write_shared("x", blob(content)).ok());
  EXPECT_EQ(store->stats().physical_bytes, 2 * kChunk);

  // Overwrite with identical content: dedup keeps physical flat.
  ASSERT_TRUE(volume.write_shared("x", blob(content)).ok());
  EXPECT_EQ(store->stats().physical_bytes, 2 * kChunk);

  // Overwrite with a shrunk file sharing its first chunk: only the
  // shared chunk survives; the other old chunk is reclaimed.
  util::Bytes shrunk(content.begin(), content.begin() + kChunk);
  ASSERT_TRUE(volume.write_shared("x", blob(shrunk)).ok());
  EXPECT_EQ(store->stats().physical_bytes, kChunk);
  EXPECT_EQ(volume.used_bytes(), kChunk);  // quota charges logical bytes

  // Delete then recreate: physical drops to zero and comes back exact.
  ASSERT_TRUE(volume.remove("x").ok());
  EXPECT_EQ(store->stats().physical_bytes, 0u);
  EXPECT_EQ(volume.used_bytes(), 0u);
  ASSERT_TRUE(volume.write_shared("x", blob(content)).ok());
  EXPECT_EQ(store->stats().physical_bytes, 2 * kChunk);
  EXPECT_EQ(volume.used_bytes(), 2 * kChunk);
}

TEST(ChunkStore, CrossFileDedupChargesQuotaPerFile) {
  auto store = std::make_shared<ChunkStore>();
  uspace::Volume volume("v", 2000);
  util::Bytes content = pattern_bytes(600, 3);
  auto shared = uspace::intern_blob(
      store, std::make_shared<const uspace::FileBlob>(
                 uspace::FileBlob::from_bytes(content)));
  ASSERT_TRUE(volume.write_shared("a", std::move(shared)).ok());
  auto again = uspace::intern_blob(
      store, std::make_shared<const uspace::FileBlob>(
                 uspace::FileBlob::from_bytes(content)));
  ASSERT_TRUE(volume.write_shared("b", std::move(again)).ok());
  // Two files, one physical copy; the quota sees both.
  EXPECT_EQ(store->stats().physical_bytes, 600u);
  EXPECT_EQ(volume.used_bytes(), 1200u);
  // Deleting one file frees no physical bytes (the other still pins).
  ASSERT_TRUE(volume.remove("a").ok());
  EXPECT_EQ(store->stats().physical_bytes, 600u);
  ASSERT_TRUE(volume.remove("b").ok());
  EXPECT_EQ(store->stats().physical_bytes, 0u);
}

TEST(ChunkStore, MetricsMirrorOccupancy) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  auto store = std::make_shared<ChunkStore>();
  store->set_metrics(registry, "LRZ");
  util::Bytes data = pattern_bytes(300, 1);
  crypto::Digest digest = crypto::chunk_content_digest(data);
  ASSERT_TRUE(store->add_chunk(digest, data).ok());
  ASSERT_TRUE(store->add_chunk(digest, data).ok());
  auto snapshot = registry->snapshot();
  obs::Labels labels{{"site", "LRZ"}};
  ASSERT_NE(snapshot.find("unicore_store_physical_bytes", labels), nullptr);
  EXPECT_EQ(snapshot.find("unicore_store_physical_bytes", labels)->value, 300);
  EXPECT_EQ(snapshot.find("unicore_store_dedup_hits_total", labels)->value, 1);
  EXPECT_EQ(snapshot.find("unicore_store_total_refs", labels)->value, 2);
}

}  // namespace
}  // namespace unicore::store
