// Durable transfer state: bundle manifests and chunks journaled through
// the NJS write-ahead journal, and the fold that rebuilds half-finished
// transfers after a receiver crash. A single file is a bundle of one.
#include "xfer/manifest.h"

#include <gtest/gtest.h>

#include "common/wire_fuzz.h"

namespace unicore::xfer {
namespace {

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Org";
  out.common_name = cn;
  return out;
}

struct ManifestFixture : public ::testing::Test {
  std::shared_ptr<njs::JournalStore> store =
      std::make_shared<njs::JournalStore>();
  njs::Journal journal{store};

  uspace::FileBlob blob = uspace::FileBlob::from_string(
      std::string(3 * kDefaultChunkBytes / 2, 'm'));

  /// The manifest of a one-file bundle carrying `blob` as `name`.
  BundleManifest make_manifest(ajo::JobToken token = 42,
                               const std::string& name = "in.dat") {
    BundleManifest manifest;
    manifest.token = token;
    manifest.principal = dn("peer-njs");
    manifest.files.push_back({name, blob.size(), blob.checksum(), false});
    BundleFileEntry entry;
    entry.name = name;
    entry.size = blob.size();
    entry.checksum = blob.checksum();
    manifest.key = make_bundle_key("FZ-Juelich", token, {entry});
    return manifest;
  }
};

TEST_F(ManifestFixture, CodecRoundTrip) {
  BundleManifest manifest = make_manifest();
  manifest.files.push_back({"second.dat", 7, blob.checksum(), true});
  util::ByteWriter w;
  manifest.encode(w);
  util::ByteReader r{w.bytes()};
  BundleManifest decoded = BundleManifest::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.key, manifest.key);
  EXPECT_EQ(decoded.token, manifest.token);
  EXPECT_EQ(decoded.principal.common_name, "peer-njs");
  ASSERT_EQ(decoded.files.size(), 2u);
  EXPECT_EQ(decoded.files[0].name, "in.dat");
  EXPECT_EQ(decoded.files[0].size, blob.size());
  EXPECT_EQ(decoded.files[0].checksum, blob.checksum());
  EXPECT_FALSE(decoded.files[0].synthetic);
  EXPECT_EQ(decoded.files[1].size, 7u);
  EXPECT_TRUE(decoded.files[1].synthetic);
}

TEST_F(ManifestFixture, RecoverRebuildsOpenTransferWithoutDuplicates) {
  BundleManifest manifest = make_manifest();
  journal_bundle_manifest(journal, manifest);
  Chunk first = make_chunk(blob, 0);
  Chunk second = make_chunk(blob, 1);
  journal_bundle_chunk(journal, manifest, 0, first);
  journal_bundle_chunk(journal, manifest, 0, second);
  // A crash between append and ack makes the sender re-deliver; the
  // journal may then hold the same chunk twice. Recovery dedups.
  journal_bundle_chunk(journal, manifest, 0, first);

  auto recovered = recover_bundles(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].manifest.key, manifest.key);
  ASSERT_EQ(recovered[0].manifest.files.size(), 1u);
  EXPECT_EQ(recovered[0].manifest.files[0].name, "in.dat");
  ASSERT_EQ(recovered[0].chunks.size(), 2u);
  EXPECT_EQ(recovered[0].chunks[0].first, 0u);  // file index
  EXPECT_EQ(recovered[0].chunks[0].second.index, 0u);
  EXPECT_EQ(recovered[0].chunks[1].second.index, 1u);
  // The WAL carries the payload — the bytes must survive the crash.
  EXPECT_EQ(recovered[0].chunks[0].second.data, first.data);
}

TEST_F(ManifestFixture, DoneTombstoneErasesTransferAndRecordsKey) {
  BundleManifest manifest = make_manifest();
  journal_bundle_manifest(journal, manifest);
  journal_bundle_chunk(journal, manifest, 0,
                       make_chunk(blob, 0));
  journal_bundle_done(journal, manifest);

  EXPECT_TRUE(recover_bundles(journal).empty());
  auto completed = completed_bundle_keys(journal);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], manifest.key);
}

TEST_F(ManifestFixture, ExpiredTombstoneErasesTransferWithoutCompletingIt) {
  BundleManifest manifest = make_manifest();
  journal_bundle_manifest(journal, manifest);
  journal_bundle_chunk(journal, manifest, 0,
                       make_chunk(blob, 0));
  journal_bundle_expired(journal, manifest);

  EXPECT_TRUE(recover_bundles(journal).empty());
  EXPECT_TRUE(completed_bundle_keys(journal).empty());
  // Job recovery skips it like every other transfer record.
  EXPECT_TRUE(journal.recover().empty());

  // A sender that re-opens the key later journals a fresh manifest; that
  // bundle is open again.
  journal_bundle_manifest(journal, manifest);
  auto recovered = recover_bundles(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered[0].chunks.empty());
}

TEST_F(ManifestFixture, IndependentTransfersRecoverSeparately) {
  BundleManifest a = make_manifest(1, "a.dat");
  BundleManifest b = make_manifest(2, "b.dat");
  journal_bundle_manifest(journal, a);
  journal_bundle_manifest(journal, b);
  journal_bundle_chunk(journal, a, 0, make_chunk(blob, 0));
  journal_bundle_done(journal, b);

  auto recovered = recover_bundles(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].manifest.files[0].name, "a.dat");
  auto completed = completed_bundle_keys(journal);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], b.key);
}

TEST_F(ManifestFixture, SyntheticChunksJournalGeometryOnly) {
  uspace::FileBlob synth = uspace::FileBlob::synthetic(4 << 20, 5);
  BundleManifest manifest;
  manifest.token = 7;
  manifest.principal = dn("peer-njs");
  manifest.files.push_back({"huge.bin", synth.size(), synth.checksum(), true});
  manifest.key = util::Bytes(32, 0x11);

  journal_bundle_manifest(journal, manifest);
  Chunk chunk = make_chunk(synth, 2);
  journal_bundle_chunk(journal, manifest, 0, chunk);

  auto recovered = recover_bundles(journal);
  ASSERT_EQ(recovered.size(), 1u);
  ASSERT_EQ(recovered[0].chunks.size(), 1u);
  const Chunk& back = recovered[0].chunks[0].second;
  EXPECT_TRUE(back.synthetic);
  EXPECT_TRUE(back.data.empty());
  EXPECT_EQ(back.digest, chunk.digest);
}

TEST_F(ManifestFixture, CorruptRecordsAreSkippedNotFatal) {
  BundleManifest manifest = make_manifest();
  journal_bundle_manifest(journal, manifest);
  journal_bundle_chunk(journal, manifest, 0,
                       make_chunk(blob, 0));
  // A truncated append (torn write) must not poison recovery.
  njs::JournalRecord torn;
  torn.type = njs::JournalRecordType::kXferBundleChunk;
  torn.token = manifest.token;
  torn.payload = util::Bytes{1, 2, 3};
  journal.append(std::move(torn));
  njs::JournalRecord torn_manifest;
  torn_manifest.type = njs::JournalRecordType::kXferBundleManifest;
  torn_manifest.payload = util::Bytes{9};
  journal.append(std::move(torn_manifest));
  // A garbled file count must not size an allocation either.
  util::ByteWriter garbled;
  garbled.blob(util::Bytes(32, 0x22));  // key
  garbled.u64(manifest.token);
  garbled.u32(kDefaultChunkBytes);
  for (int i = 0; i < 5; ++i) garbled.str("");  // principal
  garbled.varint(1ull << 40);                   // files
  njs::JournalRecord huge;
  huge.type = njs::JournalRecordType::kXferBundleManifest;
  huge.payload = garbled.take();
  journal.append(std::move(huge));
  // Nor may a manifest naming a chunk size other than 1 MiB open a
  // bundle, even with a chunk journaled after it.
  BundleManifest resized = make_manifest(43, "resized.dat");
  util::ByteWriter resized_record;
  resized.encode(resized_record);
  const std::size_t field = 1 + resized.key.size() + 8;  // key, token
  journal.append({njs::JournalRecordType::kXferBundleManifest, resized.token,
                  testing::splice_u32(resized_record.take(), field, 64 << 10)});
  journal_bundle_chunk(journal, resized, 0, make_chunk(blob, 0));

  auto recovered = recover_bundles(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].chunks.size(), 1u);
}

TEST_F(ManifestFixture, JobRecoveryIgnoresTransferRecords) {
  // The job-recovery fold must skip record types owned by the transfer
  // engine (and vice versa).
  BundleManifest manifest = make_manifest();
  journal_bundle_manifest(journal, manifest);
  journal_bundle_chunk(journal, manifest, 0,
                       make_chunk(blob, 0));
  EXPECT_TRUE(journal.recover().empty());
}

}  // namespace
}  // namespace unicore::xfer
