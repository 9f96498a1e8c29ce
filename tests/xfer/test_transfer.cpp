// TransferManager against a real xfer::Service over a loopback
// transport: windowed parallel pushes and pulls, lost-ack idempotent
// re-delivery, receiver crash/recovery resume, the commit tombstone,
// store dedup, and malformed replies. No network — faults are injected
// at the transport seam; the service journals through a real NJS
// journal. A single file is a bundle of one, so each behaviour is one
// scenario, run by one test over a single file and by one over a bundle
// of several, with the exact counts of both.
#include "xfer/transfer.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "ajo/tasks.h"
#include "batch/target_system.h"
#include "obs/metrics.h"
#include "store/chunk_store.h"
#include "xfer/service.h"

namespace unicore::xfer {
namespace {

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Org";
  out.common_name = cn;
  return out;
}

/// In-process transport: every call crosses one simulated millisecond,
/// decodes the Role byte like the gateway would, and dispatches into a
/// real Service. Faults are injected per call: `fail_next_calls` fails
/// without reaching the service; `drop_next_acks` lets the service
/// apply the chunk but loses the acknowledgement (the WAL-idempotency
/// scenario); `garble` answers every successful `*garble` call with the
/// one-byte body {0x01}, which decodes as no reply does;
/// `misindex_pulled_chunks` relabels that many pulled chunks with the
/// next index. `after_dispatch` runs once the service has handled a
/// call, before its reply travels back.
class Loopback : public ChunkTransport {
 public:
  Loopback(sim::Engine& engine, Service& service, std::size_t streams)
      : engine_(engine), service_(service), streams_(streams) {}

  std::size_t streams() const override { return streams_; }

  void call(std::size_t /*stream*/, Op op, util::Bytes body,
            std::function<void(util::Result<util::Bytes>)> done) override {
    engine_.after(sim::msec(1), [this, op, body = std::move(body),
                                 done = std::move(done)] {
      if (fail_next_calls > 0) {
        --fail_next_calls;
        done(util::make_error(util::ErrorCode::kUnavailable,
                              "injected link failure"));
        return;
      }
      util::ByteReader r{body};
      Role role = static_cast<Role>(r.u8());
      bool server_peer = role_is_server_peer(role);
      const crypto::DistinguishedName& principal =
          server_peer ? peer_dn : client_dn;
      util::Result<util::Bytes> reply = util::Bytes{};
      switch (op) {
        case Op::kOpen:
          reply = service_.open(principal, server_peer, role, r);
          break;
        case Op::kChunk:
          reply = service_.chunk(principal, server_peer, role, r);
          break;
        case Op::kClose:
          reply = service_.close(principal, server_peer, role, r);
          break;
      }
      if (after_dispatch) after_dispatch();
      if (op == Op::kChunk && drop_next_acks > 0) {
        --drop_next_acks;
        done(util::make_error(util::ErrorCode::kTimeout,
                              "injected ack loss"));
        return;
      }
      if (garble == op && reply.ok()) reply = util::Bytes{0x01};
      if (misindex_pulled_chunks > 0 && op == Op::kChunk && reply.ok() &&
          !role_is_push(role)) {
        // A well-formed chunk, but not the one that was asked for.
        --misindex_pulled_chunks;
        util::ByteReader cr{reply.value()};
        Chunk chunk = Chunk::decode(cr);
        ++chunk.index;
        util::ByteWriter w;
        chunk.encode(w);
        reply = w.take();
      }
      done(std::move(reply));
    });
  }

  crypto::DistinguishedName peer_dn = dn("peer-njs");
  crypto::DistinguishedName client_dn = dn("Jane");
  int fail_next_calls = 0;
  int drop_next_acks = 0;
  std::optional<Op> garble;
  int misindex_pulled_chunks = 0;
  std::function<void()> after_dispatch;

 private:
  sim::Engine& engine_;
  Service& service_;
  std::size_t streams_;
};

struct TransferFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{11};
  crypto::CertificateAuthority ca{dn("CA"), rng, kEpoch, 10LL * 365 * 86'400};
  crypto::Credential server_cred = ca.issue_credential(
      dn("njs"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential user_cred = ca.issue_credential(
      dn("Jane"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  njs::Njs njs{engine, util::Rng(12), "LRZ", server_cred};
  gateway::AuthenticatedUser user{dn("Jane"), "ucjane", {"project-a"}};
  std::shared_ptr<njs::MemoryJournalStore> store =
      std::make_shared<njs::MemoryJournalStore>();
  Service service{engine, njs};
  TransferManager manager{engine, rng};
  ajo::JobToken token = 0;

  void SetUp() override {
    njs.set_journal(std::make_shared<njs::Journal>(store));
    njs.add_crash_participant(&service);
    njs::Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("T3E", 32);
    njs.add_vsite(std::move(config));

    // One finished job whose Uspace receives pushes and serves pulls.
    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "T3E";
    job.user = dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("hello");
    task->script = "echo hello\n";
    task->set_resource_request({1, 600, 64, 0, 8});
    task->behavior.nominal_seconds = 1;
    job.add(std::move(task));
    auto consigned = njs.consign(job, user, user_cred.certificate);
    ASSERT_TRUE(consigned.ok()) << consigned.error().to_string();
    token = consigned.value();
    engine.run();
  }

  TransferOptions small_chunks() {
    TransferOptions options;
    options.chunk_bytes = kMinChunkBytes;
    options.window_per_stream = 4;
    return options;
  }

  util::Result<TransferStats> push_files(std::shared_ptr<Loopback> transport,
                                         std::vector<BundleFile> files,
                                         const TransferOptions& options) {
    util::Result<TransferStats> out =
        util::make_error(util::ErrorCode::kInternal, "never finished");
    manager.push(transport, PushSpec{"FZ-Juelich", token}, std::move(files),
                 options, [&](util::Result<TransferStats> result) {
                   out = std::move(result);
                 });
    engine.run();
    return out;
  }

  util::Result<TransferStats> push_blob(std::shared_ptr<Loopback> transport,
                                        const uspace::FileBlob& blob,
                                        const std::string& name,
                                        const TransferOptions& options) {
    return push_files(
        std::move(transport),
        {{name, std::make_shared<const uspace::FileBlob>(blob)}}, options);
  }

  util::Result<PullResult> pull_names(std::shared_ptr<Loopback> transport,
                                      PullSpec spec,
                                      const TransferOptions& options) {
    util::Result<PullResult> out =
        util::make_error(util::ErrorCode::kInternal, "never finished");
    manager.pull(transport, spec, options,
                 [&](util::Result<PullResult> result) {
                   out = std::move(result);
                 });
    engine.run();
    return out;
  }

  crypto::Digest delivered_checksum(const std::string& name) {
    auto blob = njs.fetch_file_shared(token, name);
    EXPECT_TRUE(blob.ok()) << blob.error().to_string();
    return blob.ok() ? blob.value()->checksum() : crypto::Digest{};
  }

  void expect_delivered(const std::vector<BundleFile>& files) {
    for (const BundleFile& file : files)
      EXPECT_EQ(delivered_checksum(file.name), file.blob->checksum())
          << file.name;
  }

  /// `count` synthetic files, "<stem>NNN", each `bytes` long, with
  /// content seeds from `seed` up.
  static std::vector<BundleFile> make_files(std::size_t count,
                                            std::uint64_t bytes,
                                            const std::string& stem = "f",
                                            std::uint64_t seed = 100) {
    std::vector<BundleFile> files;
    for (std::size_t i = 0; i < count; ++i)
      files.push_back({stem + std::to_string(i),
                       std::make_shared<const uspace::FileBlob>(
                           uspace::FileBlob::synthetic(bytes, seed + i))});
    return files;
  }

  /// Like make_files, with real pseudo-random content instead of
  /// synthetic identities.
  static std::vector<BundleFile> make_real_files(std::size_t count,
                                                 std::size_t bytes,
                                                 const std::string& stem,
                                                 std::uint64_t seed = 100) {
    std::vector<BundleFile> files;
    for (std::size_t i = 0; i < count; ++i)
      files.push_back({stem + std::to_string(i),
                       std::make_shared<const uspace::FileBlob>(
                           uspace::FileBlob::from_bytes(
                               util::Rng(seed + i).bytes(bytes)))});
    return files;
  }

  /// The receiver's unicore_xfer_buffered_bytes gauge right now.
  double buffered_gauge(const obs::MetricsRegistry& registry) {
    obs::MetricsSnapshot snapshot = registry.snapshot();
    const obs::MetricPoint* point =
        snapshot.find("unicore_xfer_buffered_bytes", {{"usite", "LRZ"}});
    return point == nullptr ? -1 : point->value;
  }

  // Scenarios shared by a single-file test and a bundle test; each is
  // defined above its pair of tests.
  void expect_lost_acks_apply_once(const std::vector<BundleFile>& files);
  void expect_crash_resumes_from_journal(const std::vector<BundleFile>& files);
  void expect_tombstone_makes_repush_cheap(const std::vector<BundleFile>& files,
                                           std::uint64_t chunks);
  void expect_pull_matches_source(const std::vector<BundleFile>& files,
                                  std::uint64_t chunks);
  void expect_client_cannot_open_peer_push(std::size_t file_count);
};

TEST_F(TransferFixture, PushStripesChunksOverParallelStreams) {
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(2 << 20, 21);
  auto stats = push_blob(transport, blob, "striped.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().bytes, 2ull << 20);
  EXPECT_EQ(stats.value().chunks, 32u);  // 2 MiB / 64 KiB
  EXPECT_EQ(stats.value().streams, 4u);
  EXPECT_EQ(stats.value().retransmits, 0u);
  EXPECT_EQ(stats.value().resumes, 0u);
  EXPECT_EQ(delivered_checksum("striped.bin"), blob.checksum());
  EXPECT_EQ(service.chunks_applied(), 32u);
  EXPECT_EQ(service.transfers_completed(), 1u);
  EXPECT_EQ(service.inbound_open(), 0u);  // table drained on close
}

TEST_F(TransferFixture, PushPreservesRealContent) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::from_string("real bytes\n");
  auto stats = push_blob(transport, blob, "real.txt", small_chunks());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks, 1u);
  auto fetched = njs.fetch_file_shared(token, "real.txt");
  ASSERT_TRUE(fetched.ok());
  ASSERT_NE(fetched.value()->bytes(), nullptr);  // content, not identity
  EXPECT_EQ(*fetched.value()->bytes(), *blob.bytes());
}

/// `files` hold 16 chunks at 64 KiB.
void TransferFixture::expect_lost_acks_apply_once(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->drop_next_acks = 3;  // applied, but the sender never hears
  auto stats = push_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().retransmits, 3u);
  EXPECT_GE(stats.value().duplicates, 3u);  // receiver said applied=false
  EXPECT_EQ(service.duplicates_suppressed(), stats.value().duplicates);
  // Exactly one application per chunk, re-delivery notwithstanding.
  EXPECT_EQ(service.chunks_applied(), 16u);
  EXPECT_EQ(service.files_delivered(), files.size());
  expect_delivered(files);
}

TEST_F(TransferFixture, LostAckRedeliversWithoutApplyingTwice) {
  expect_lost_acks_apply_once(make_files(1, 1 << 20, "lossy.bin", 8));
}

TEST_F(TransferFixture, BundleLostAckRedeliversWithoutApplyingTwice) {
  expect_lost_acks_apply_once(make_files(8, 128 << 10, "lossy/f"));
}

TEST_F(TransferFixture, TransientOpenFailureRetriesViaResumeLadder) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->fail_next_calls = 1;  // the open itself dies on the wire
  uspace::FileBlob blob = uspace::FileBlob::synthetic(256 << 10, 3);
  auto stats = push_blob(transport, blob, "retry.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(delivered_checksum("retry.bin"), blob.checksum());
}

/// `files` hold 64 chunks at 64 KiB.
void TransferFixture::expect_crash_resumes_from_journal(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  // Crash the NJS shortly after chunks start moving, then recover it
  // from the journal. The sender's transfer id goes stale; it must
  // re-open by key, and the reply's per-file have-ranges restore what
  // the journal already holds.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });
  auto stats = push_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(service.transfers_recovered(), 1u);
  // Chunks journaled before the crash were folded back, not re-applied:
  // every one of the 64 chunks was applied exactly once.
  EXPECT_EQ(service.chunks_applied(), 64u);
  // Files finished before the crash are re-delivered from the journal
  // (the workspace write is redone for durability), so delivery can
  // exceed the file count — but never miss a file.
  EXPECT_GE(service.files_delivered(), files.size());
  expect_delivered(files);
}

TEST_F(TransferFixture, ReceiverCrashMidTransferResumesFromJournal) {
  expect_crash_resumes_from_journal(make_files(1, 4 << 20, "crashy.bin", 13));
}

TEST_F(TransferFixture, ReceiverCrashMidBundleResumesFromJournal) {
  // 8 files of 512 KiB whose chunks interleave.
  expect_crash_resumes_from_journal(make_files(8, 512 << 10, "crashy/f"));
}

void TransferFixture::expect_tombstone_makes_repush_cheap(
    const std::vector<BundleFile>& files, std::uint64_t chunks) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto first = push_files(transport, files, small_chunks());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, chunks);

  // Same files, same destination: the durable bundle key matches the
  // kXferBundleDone tombstone, so the re-push moves zero chunks in a
  // single open round trip.
  auto second = push_files(transport, files, small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);
  EXPECT_EQ(service.chunks_applied(), chunks);
  expect_delivered(files);
}

TEST_F(TransferFixture, CompletedTransferTombstoneMakesRepushCheap) {
  expect_tombstone_makes_repush_cheap(make_files(1, 1 << 20, "twice.bin", 30),
                                      16);
}

TEST_F(TransferFixture, CompletedBundleTombstoneMakesRepushCheap) {
  expect_tombstone_makes_repush_cheap(make_files(6, 128 << 10, "twice/f"), 12);
}

TEST_F(TransferFixture, MalformedOpenReplyFailsOnceAfterTheResumeLadder) {
  ASSERT_TRUE(njs.deliver_file(token, "out.bin",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::synthetic(1 << 20, 4)))
                  .ok());
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 2;
  for (bool push : {true, false}) {
    SCOPED_TRACE(push ? "push" : "pull");
    auto transport = std::make_shared<Loopback>(engine, service, 2);
    transport->garble = Op::kOpen;
    int callbacks = 0;
    std::optional<util::Error> error;
    auto record = [&](util::Status status) {
      ++callbacks;
      if (!status.ok()) error = status.error();
    };
    if (push)
      manager.push(transport, PushSpec{"FZ-Juelich", token},
                   make_files(2, 128 << 10, "garbled/f"), options,
                   [&](util::Result<TransferStats> r) {
                     record(r.ok() ? util::Status() : util::Status(r.error()));
                   });
    else
      manager.pull(transport, PullSpec{Role::kPeerPull, token, {"out.bin"}},
                   options, [&](util::Result<PullResult> r) {
                     record(r.ok() ? util::Status() : util::Status(r.error()));
                   });
    engine.run();  // must not throw out of the transport callback
    EXPECT_EQ(callbacks, 1);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, util::ErrorCode::kUnavailable);
    EXPECT_NE(error->message.find("malformed open reply"), std::string::npos)
        << error->message;
  }
}

TEST_F(TransferFixture, MalformedChunkReplyFailsOnceAfterTheResumeLadder) {
  ASSERT_TRUE(njs.deliver_file(token, "out.bin",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::synthetic(1 << 20, 4)))
                  .ok());
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 2;
  options.max_chunk_retries = 1;
  // The pushed chunks land even though their acks are garbled; 32 of
  // them outlast three windows of 8, so the push cannot finish by
  // resuming either.
  for (bool push : {true, false}) {
    SCOPED_TRACE(push ? "push" : "pull");
    auto transport = std::make_shared<Loopback>(engine, service, 2);
    transport->garble = Op::kChunk;
    int callbacks = 0;
    std::optional<util::Error> error;
    auto record = [&](util::Status status) {
      ++callbacks;
      if (!status.ok()) error = status.error();
    };
    if (push)
      manager.push(transport, PushSpec{"FZ-Juelich", token},
                   make_files(2, 1 << 20, "garbled/f"), options,
                   [&](util::Result<TransferStats> r) {
                     record(r.ok() ? util::Status() : util::Status(r.error()));
                   });
    else
      manager.pull(transport, PullSpec{Role::kPeerPull, token, {"out.bin"}},
                   options, [&](util::Result<PullResult> r) {
                     record(r.ok() ? util::Status() : util::Status(r.error()));
                   });
    engine.run();  // must not throw out of the transport callback
    EXPECT_EQ(callbacks, 1);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, util::ErrorCode::kUnavailable);
    EXPECT_NE(error->message.find("chunk retries exhausted"),
              std::string::npos)
        << error->message;
  }
}

TEST_F(TransferFixture, PullRejectsAChunkForAnotherIndex) {
  // Real, varied content: chunk 0 relabelled as chunk 1 still matches
  // its own digest and length, so only its index shows that the source
  // answered another request. Assembled as chunk 1 it would corrupt the
  // file; refetched, the pull completes intact.
  util::Bytes content(5 * kMinChunkBytes);
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<std::uint8_t>(i % 251);
  uspace::FileBlob blob = uspace::FileBlob::from_bytes(content);
  ASSERT_TRUE(njs.deliver_file(token, "varied.bin",
                               std::make_shared<const uspace::FileBlob>(blob))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->misindex_pulled_chunks = 1;
  auto out = pull_names(transport,
                        PullSpec{Role::kPeerPull, token, {"varied.bin"}},
                        small_chunks());
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().blobs[0].checksum(), blob.checksum());
  EXPECT_EQ(out.value().stats.retransmits, 1u);
  EXPECT_EQ(out.value().stats.chunks, 5u);
}

// ---- content-addressed store integration ----------------------------------

struct StoreTransferFixture : public TransferFixture {
  std::shared_ptr<store::ChunkStore> chunk_store =
      std::make_shared<store::ChunkStore>();

  void SetUp() override {
    TransferFixture::SetUp();
    njs.set_chunk_store(chunk_store);
    service.set_chunk_store(chunk_store);
  }

  /// Refs the receiver job's stored files pin right now. With no
  /// transfer in flight, the store must hold exactly this many refs —
  /// anything above is an orphaned refcount.
  std::uint64_t refs_pinned_by_storage() {
    std::uint64_t refs = 0;
    auto files = njs.storage_files(token);
    if (!files.ok()) return 0;
    for (const std::string& name : files.value()) {
      auto blob = njs.fetch_file_shared(token, name);
      if (blob.ok() && blob.value()->is_stored())
        refs += blob.value()->pinned()->manifest().chunks.size();
    }
    return refs;
  }

  void expect_repush_to_new_names_moves_nothing(
      const std::vector<BundleFile>& files);
  void expect_clamp_ignores_manifests(const std::vector<BundleFile>& files);
};

/// `files` hold 16 chunks at 64 KiB.
void StoreTransferFixture::expect_repush_to_new_names_moves_nothing(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto first = push_files(transport, files, small_chunks());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 16u);
  EXPECT_EQ(service.chunks_applied(), 16u);

  // Same payloads under new names: the bundle key differs, so the
  // tombstone does NOT apply — but the open's per-file digest manifests
  // find every chunk in the store. The whole batch settles in the one
  // open round trip; zero payload moves.
  std::vector<BundleFile> renamed;
  for (const BundleFile& file : files)
    renamed.push_back({"warm/" + file.name, file.blob});
  auto second = push_files(transport, renamed, small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);  // zero payload chunks moved
  EXPECT_EQ(second.value().deduped, 16u);
  EXPECT_EQ(service.chunks_applied(), 16u);  // nothing re-applied
  EXPECT_EQ(service.chunks_deduped(), 16u);
  EXPECT_EQ(service.files_delivered(), 2 * files.size());
  expect_delivered(files);
  expect_delivered(renamed);
  // One physical copy, pinned by both names.
  EXPECT_EQ(chunk_store->stats().chunks, 16u);
  EXPECT_EQ(chunk_store->stats().dedup_hits, 16u);
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
}

TEST_F(StoreTransferFixture, RepushToNewNameMovesZeroPayloadBytes) {
  expect_repush_to_new_names_moves_nothing(
      make_files(1, 1 << 20, "cold.bin", 30));
}

TEST_F(StoreTransferFixture, BundleRepushToNewNamesDedupsWholeBatchInOneRtt) {
  expect_repush_to_new_names_moves_nothing(make_files(8, 128 << 10, "cold/f"));
}

TEST_F(StoreTransferFixture, CrashResumeLeavesNoOrphanedRefcounts) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 13);

  // The crash destroys the in-flight assembly (its chunk refs must be
  // released), recovery folds the journaled chunks back in (their refs
  // must be re-taken), and the resumed transfer fills the rest.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });

  auto stats = push_blob(transport, blob, "crashy.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(service.chunks_applied(), 64u);  // exactly once per chunk
  EXPECT_EQ(delivered_checksum("crashy.bin"), blob.checksum());
  EXPECT_EQ(service.inbound_open(), 0u);
  // Every surviving ref is pinned by a file: nothing leaked across the
  // crash/recover/resume cycle.
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
}

TEST_F(StoreTransferFixture, AbandonedTransferReleasesInFlightRefs) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 5);
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 1;  // give up on the first outage
  options.max_chunk_retries = 0;
  // Let the open and the first chunks through, then cut the link for
  // good: the sender abandons a half-assembled inbound transfer whose
  // chunks hold store refs.
  engine.after(sim::msec(3), [&transport] {
    transport->fail_next_calls = 1'000'000;
  });
  auto stats = push_blob(transport, blob, "doomed.bin", options);
  ASSERT_FALSE(stats.ok());
  ASSERT_EQ(service.inbound_open(), 1u);

  // The process dies with the half-open table: every in-flight
  // assembly's refs must be released, leaving the store empty (the
  // receiver job's own files predate the store and pin nothing).
  njs.crash();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

TEST_F(StoreTransferFixture, ReapReclaimsPhysicalBytesAndRecordsMetric) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  chunk_store->set_metrics(registry, "LRZ");
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  // Real payload so physical bytes are non-zero. The constant fill
  // makes all four 64 KiB chunks identical: intra-file dedup stores
  // exactly one physical chunk for a 256 KiB file.
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Bytes(256 << 10, 0xab));
  auto stats = push_blob(transport, blob, "data.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(chunk_store->stats().physical_bytes, 64u << 10);
  EXPECT_EQ(chunk_store->stats().logical_bytes, 256u << 10);

  auto freed = njs.reap_storage(token);
  ASSERT_TRUE(freed.ok()) << freed.error().to_string();
  // Reaping released the files' pins: the payload is physically gone.
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  auto snapshot = registry->snapshot();
  const obs::MetricPoint* reclaimed = snapshot.find(
      "unicore_store_reap_reclaimed_bytes_total", {{"usite", "LRZ"}});
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_EQ(reclaimed->value, double(64 << 10));
}

TEST_F(TransferFixture, BackpressureShrinksCreditButCompletes) {
  Service::Limits limits;
  limits.buffer_limit_bytes = 256 << 10;  // exactly the file size
  limits.max_credit = 2;
  service.set_limits(limits);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::from_string(
      std::string(256 << 10, 'b'));
  TransferOptions options = small_chunks();
  options.window_per_stream = 8;  // ask for far more than the credit
  auto stats = push_blob(transport, blob, "tight.bin", options);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(delivered_checksum("tight.bin"), blob.checksum());
  EXPECT_EQ(service.inbound_open(), 0u);
}

void TransferFixture::expect_pull_matches_source(
    const std::vector<BundleFile>& files, std::uint64_t chunks) {
  PullSpec spec{Role::kPeerPull, token, {}};
  for (const BundleFile& file : files) {
    ASSERT_TRUE(njs.deliver_file(token, file.name, file.blob).ok());
    spec.names.push_back(file.name);
  }
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  auto out = pull_names(transport, spec, small_chunks());
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  ASSERT_EQ(out.value().blobs.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(out.value().blobs[i].checksum(), files[i].blob->checksum());
  EXPECT_FALSE(out.value().stats.inlined);
  EXPECT_EQ(out.value().stats.files, files.size());
  EXPECT_EQ(out.value().stats.chunks, chunks);
  EXPECT_EQ(out.value().stats.bundles, 1u);  // every file in one open
  EXPECT_EQ(service.outbound_open(), 0u);  // close released the read
}

TEST_F(TransferFixture, PullChunkedMatchesSourceChecksum) {
  expect_pull_matches_source(make_files(1, 3 << 20, "out.bin", 17), 48);
}

TEST_F(TransferFixture, PullBundleFetchesEveryFileInOneOpen) {
  expect_pull_matches_source(make_files(10, 128 << 10, "out/f"), 20);
}

TEST_F(TransferFixture, PullSmallFileInlinesInOpenReply) {
  ASSERT_TRUE(njs.deliver_file(token, "note.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("n")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto out = pull_names(transport, PullSpec{Role::kPeerPull, token,
                                            {"note.txt"}},
                        small_chunks());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().stats.inlined);
  EXPECT_EQ(out.value().stats.chunks, 0u);
  ASSERT_EQ(out.value().blobs.size(), 1u);
  EXPECT_EQ(out.value().blobs[0].size(), 1u);
  EXPECT_EQ(service.outbound_open(), 0u);  // nothing to close

  // Two small files never inline: they take the manifest path.
  ASSERT_TRUE(njs.deliver_file(token, "note2.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("m")))
                  .ok());
  auto both = pull_names(transport, PullSpec{Role::kPeerPull, token,
                                             {"note.txt", "note2.txt"}},
                         small_chunks());
  ASSERT_TRUE(both.ok()) << both.error().to_string();
  EXPECT_FALSE(both.value().stats.inlined);
  EXPECT_EQ(both.value().stats.chunks, 2u);
}

TEST_F(TransferFixture, ClientPullEnforcesJobOwnership) {
  ASSERT_TRUE(njs.deliver_file(token, "secret.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("s")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 1);
  transport->client_dn = dn("Mallory");  // not the job owner
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 1;  // permission errors must not retry long
  auto out = pull_names(transport,
                        PullSpec{Role::kClientPull, token, {"secret.txt"}},
                        options);
  ASSERT_FALSE(out.ok());
}

// ---- bundles of many files -------------------------------------------------

TEST_F(TransferFixture, BundlePushDeliversEveryFileInOneOpen) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  std::vector<BundleFile> files = make_files(12, 128 << 10);  // 2 chunks each

  auto stats = push_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 12u);
  EXPECT_EQ(stats.value().bytes, 12u * (128 << 10));
  EXPECT_EQ(stats.value().chunks, 24u);
  EXPECT_EQ(stats.value().bundles, 1u);
  EXPECT_EQ(stats.value().resumes, 0u);
  EXPECT_EQ(service.chunks_applied(), 24u);
  EXPECT_EQ(service.transfers_completed(), 1u);
  EXPECT_EQ(service.files_delivered(), 12u);
  EXPECT_EQ(service.inbound_open(), 0u);  // close drained the table
  expect_delivered(files);

  // One bundle open, twelve files, and 2n-2 round trips saved against
  // one open and one close per file.
  auto snapshot = registry->snapshot();
  obs::Labels labels{{"usite", "LRZ"}};
  const obs::MetricPoint* opens =
      snapshot.find("unicore_xfer_opens_total", labels);
  ASSERT_NE(opens, nullptr);
  EXPECT_EQ(opens->value, 1.0);
  const obs::MetricPoint* bundle_files =
      snapshot.find("unicore_xfer_bundle_files_total", labels);
  ASSERT_NE(bundle_files, nullptr);
  EXPECT_EQ(bundle_files->value, 12.0);
  const obs::MetricPoint* saved =
      snapshot.find("unicore_xfer_rtts_saved_total", labels);
  ASSERT_NE(saved, nullptr);
  EXPECT_EQ(saved->value, 22.0);  // 2*12 - 2
}

TEST_F(TransferFixture, BundleMixesFileSizesAcrossOneCreditWindow) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files;
  files.push_back({"big.bin", std::make_shared<const uspace::FileBlob>(
                                  uspace::FileBlob::synthetic(1 << 20, 7))});
  files.push_back({"note.txt", std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("hello"))});
  files.push_back({"mid.bin", std::make_shared<const uspace::FileBlob>(
                                  uspace::FileBlob::synthetic(192 << 10, 9))});
  auto stats = push_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 3u);
  EXPECT_EQ(stats.value().chunks, 16u + 1u + 3u);
  EXPECT_EQ(service.files_delivered(), 3u);
  auto note = njs.fetch_file_shared(token, "note.txt");
  ASSERT_TRUE(note.ok());
  ASSERT_NE(note.value()->bytes(), nullptr);
  EXPECT_EQ(*note.value()->bytes(), *uspace::FileBlob::from_string("hello")
                                         .bytes());  // content, not identity
  expect_delivered(files);
}

TEST_F(TransferFixture, PushTreeSlicesAboveTheBundleCapAndAggregates) {
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  // One file past the cap: two sequential wire bundles, one result.
  auto stats =
      push_files(transport, make_files(kMaxBundleFiles + 1, 1, "t"),
                 small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, kMaxBundleFiles + 1);
  EXPECT_EQ(stats.value().chunks, kMaxBundleFiles + 1);
  EXPECT_EQ(stats.value().bundles, 2u);
  EXPECT_EQ(service.transfers_completed(), 2u);
  EXPECT_EQ(service.files_delivered(), kMaxBundleFiles + 1);
}

// A client-authenticated caller must not open a peer-role push; the
// service enforces it independently of the gateway.
void TransferFixture::expect_client_cannot_open_peer_push(
    std::size_t file_count) {
  BundleOpenRequest request;
  request.role = Role::kPush;
  request.token = token;
  for (std::size_t i = 0; i < file_count; ++i) {
    BundleFileEntry entry;
    entry.name = "x" + std::to_string(i) + ".bin";
    entry.size = 1;
    entry.checksum = uspace::FileBlob::from_string("x").checksum();
    request.files.push_back(entry);
  }
  request.key = make_bundle_key("evil", token, request.files);
  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  auto reply = service.open(dn("Jane"), /*server_peer=*/false, role, r);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(TransferFixture, PushRequiresServerPeerCertificate) {
  expect_client_cannot_open_peer_push(1);
}

TEST_F(TransferFixture, BundlePushRequiresServerPeerCertificate) {
  expect_client_cannot_open_peer_push(3);
}

TEST_F(StoreTransferFixture, PullBundleSatisfiesWarmChunksFromLocalStore) {
  std::vector<BundleFile> files = make_files(6, 128 << 10, "out");
  for (const auto& f : files)
    ASSERT_TRUE(njs.deliver_file(token, f.name, f.blob).ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  PullSpec spec;
  spec.role = Role::kPeerPull;
  spec.token = token;
  spec.store = std::make_shared<store::ChunkStore>();
  for (const auto& f : files) spec.names.push_back(f.name);

  auto cold = pull_names(transport, spec, small_chunks());
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(cold.value().stats.chunks, 12u);

  // The cold pull interned every chunk into the local store (the
  // result blobs pin them). A second pull of the same files settles
  // entirely from the open reply's manifests: zero chunk requests.
  auto warm = pull_names(transport, spec, small_chunks());
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_EQ(warm.value().stats.chunks, 0u);
  EXPECT_EQ(warm.value().stats.deduped, 12u);
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(warm.value().blobs[i].checksum(), files[i].blob->checksum());
}

// A clamped chunk size invalidates the sender's digest manifests (they
// were computed at the proposed granularity), so the open must not
// apply have-range dedup. `files` hold 8 chunks at 128 KiB, 16 once
// clamped to 64 KiB.
void StoreTransferFixture::expect_clamp_ignores_manifests(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  TransferOptions wide = small_chunks();
  wide.chunk_bytes = 2 * kMinChunkBytes;  // 128 KiB
  auto first = push_files(transport, files, wide);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 8u);

  // Now the receiver clamps every proposal down to 64 KiB. The re-push
  // proposes 128 KiB again — its digests are 128 KiB-granularity, and
  // every one of them IS in the store. Applying them to 64 KiB
  // assemblies would mark the wrong chunks present; the service must
  // ignore the manifests and take the full transfer instead.
  Service::Limits limits;
  limits.max_chunk_bytes = kMinChunkBytes;
  service.set_limits(limits);
  std::vector<BundleFile> renamed;
  for (const BundleFile& file : files)
    renamed.push_back({"clamped/" + file.name, file.blob});
  auto second = push_files(transport, renamed, wide);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 16u);  // no dedup: every chunk moved
  EXPECT_EQ(second.value().deduped, 0u);
  EXPECT_EQ(service.chunks_deduped(), 0u);
  expect_delivered(renamed);
}

TEST_F(StoreTransferFixture, SatisfyOpenIgnoresManifestAfterChunkSizeClamp) {
  expect_clamp_ignores_manifests(make_files(1, 1 << 20, "cold.bin", 42));
}

TEST_F(StoreTransferFixture, SatisfyBundleOpenIgnoresManifestAfterClamp) {
  expect_clamp_ignores_manifests(make_files(4, 256 << 10, "cold/f"));
}

// Real content: the sender's chunk digests come from the payload, and
// the manifest's 128 KiB digests must not label the 64 KiB chunks a
// clamped receiver asks for.
TEST_F(StoreTransferFixture, SatisfyRealContentOpenIgnoresManifestAfterClamp) {
  expect_clamp_ignores_manifests(make_real_files(4, 256 << 10, "real/f"));
}

// ---- the receive window's running total ------------------------------------

TEST_F(TransferFixture, BufferedBytesGaugeTracksAssembliesDuringABundlePush) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  double peak = 0;
  std::size_t checks = 0;
  transport->after_dispatch = [&] {
    if (checks++ == 0) {
      // Lose the first chunk once: its retry lands after the rest of
      // the window, so file 0 stays half-assembled while the later
      // files buffer and drain beside it.
      transport->fail_next_calls = 1;
      return;
    }
    double gauge = buffered_gauge(*registry);
    EXPECT_EQ(gauge, static_cast<double>(service.buffered_in_assemblies()));
    peak = std::max(peak, gauge);
  };
  // Six real files of three 64 KiB chunks; each drains on delivery.
  std::vector<BundleFile> files = make_real_files(6, 192 << 10, "buf/f");
  auto stats = push_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().chunks, 19u);  // one resent
  EXPECT_EQ(stats.value().retransmits, 1u);
  EXPECT_EQ(service.chunks_applied(), 18u);
  EXPECT_EQ(checks, 1u + 18u + 1u);  // open, chunks, close
  EXPECT_GE(peak, double(4 * kMinChunkBytes));  // two files half-assembled
  expect_delivered(files);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
}

TEST_F(TransferFixture, BufferedBytesGaugeReadsZeroAfterAbandonAndRecovery) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files = make_real_files(1, 1 << 20, "lost.bin");
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 1;
  options.max_chunk_retries = 0;
  // The sender gives up mid-transfer, leaving a half-assembled file.
  engine.after(sim::msec(3), [&transport] {
    transport->fail_next_calls = 1'000'000;
  });
  ASSERT_FALSE(push_files(transport, files, options).ok());
  ASSERT_EQ(service.inbound_open(), 1u);
  EXPECT_GT(service.buffered_in_assemblies(), 0u);
  EXPECT_EQ(buffered_gauge(*registry),
            static_cast<double>(service.buffered_in_assemblies()));

  // The process dies with the abandoned transfer: nothing is buffered.
  njs.crash();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);

  // Recovery folds the journaled chunks back in, and the resumed push
  // drains them again.
  ASSERT_TRUE(njs.recover().ok());
  ASSERT_EQ(service.inbound_open(), 1u);
  EXPECT_GT(service.buffered_in_assemblies(), 0u);
  EXPECT_EQ(buffered_gauge(*registry),
            static_cast<double>(service.buffered_in_assemblies()));
  auto resumed = push_files(std::make_shared<Loopback>(engine, service, 2),
                            files, small_chunks());
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_LT(resumed.value().chunks, 16u);  // the journaled ones stay put
  expect_delivered(files);
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
}

TEST_F(TransferFixture, ReceiveWindowFullFiresAtTheBufferLimit) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  Service::Limits limits;
  limits.buffer_limit_bytes = 2 * kMinChunkBytes;
  service.set_limits(limits);
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Rng(7).bytes(4 * kMinChunkBytes));

  BundleOpenRequest open;
  open.role = Role::kPush;
  open.token = token;
  open.proposed_chunk_bytes = kMinChunkBytes;
  open.files.push_back({"window.bin", blob.size(), blob.checksum(), false,
                        blob.chunk_digests(kMinChunkBytes)});
  open.key = make_bundle_key("FZ-Juelich", token, open.files);
  util::Bytes open_wire = open.encode();
  util::ByteReader open_reader{open_wire};
  open_reader.u8();  // the role byte
  auto opened = service.open(dn("peer-njs"), /*server_peer=*/true, Role::kPush,
                             open_reader);
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  util::ByteReader reply_reader{opened.value()};
  std::uint64_t transfer_id = BundleOpenReply::decode(reply_reader).transfer_id;

  auto send = [&](std::uint64_t index) {
    BundleChunkRequest request;
    request.transfer_id = transfer_id;
    request.chunk = make_chunk(blob, index, kMinChunkBytes);
    util::Bytes wire = request.encode();
    util::ByteReader r{wire};
    r.u8();  // the role byte
    return service.chunk(dn("peer-njs"), /*server_peer=*/true, Role::kPush, r);
  };
  // Filling the buffer exactly to the limit is allowed; one byte past
  // it is not, and the rejected chunk leaves the total untouched.
  ASSERT_TRUE(send(0).ok());
  ASSERT_TRUE(send(1).ok());
  EXPECT_EQ(buffered_gauge(*registry), double(2 * kMinChunkBytes));
  auto full = send(2);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(buffered_gauge(*registry), double(2 * kMinChunkBytes));
  EXPECT_EQ(service.buffered_in_assemblies(), 2u * kMinChunkBytes);
}

}  // namespace
}  // namespace unicore::xfer
