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
#include "common/wire_fuzz.h"
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
/// call, before its reply travels back; `rewrite` may then edit any
/// successful reply body.
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
      if (rewrite && reply.ok()) rewrite(op, reply.value());
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
  std::function<void(Op, util::Bytes&)> rewrite;

 private:
  sim::Engine& engine_;
  Service& service_;
  std::size_t streams_;
};

/// Offsets of the u32 chunk-size field: in a push open with a 32-byte
/// key (role, key, token), a pull open (role, token), a push open reply
/// (transfer id) and a chunked pull open reply (inline flag, transfer
/// id).
constexpr std::size_t kPushOpenChunkField = 1 + 1 + 32 + 8;
constexpr std::size_t kPullOpenChunkField = 1 + 8;
constexpr std::size_t kPushReplyChunkField = 8;
constexpr std::size_t kPullReplyChunkField = 1 + 8;

/// The sizes other than 1 MiB that the tests name.
constexpr std::uint32_t kOtherChunkSizes[] = {64 << 10, 0, 0xffffffff};

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
  std::shared_ptr<njs::JournalStore> store =
      std::make_shared<njs::JournalStore>();
  Service service{engine, njs};
  TransferManager manager{engine, rng};
  ajo::JobToken token = 0;
  std::uint64_t uspace_quota_bytes = 0;  // the receiver job's; 0 = unlimited

  void SetUp() override {
    njs.set_journal(std::make_shared<njs::Journal>(store));
    njs.add_crash_participant(&service);
    njs::Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("T3E", 32);
    config.uspace_quota_bytes = uspace_quota_bytes;
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

  util::Result<TransferStats> push_files(std::shared_ptr<Loopback> transport,
                                         std::vector<BundleFile> files,
                                         const TransferOptions& options = {}) {
    util::Result<TransferStats> out =
        util::make_error(util::ErrorCode::kInternal, "never finished");
    manager.push(transport, PushSpec{"FZ-Juelich", token}, std::move(files),
                 options, [&](util::Result<TransferStats> result) {
                   out = std::move(result);
                 });
    engine.run();
    return out;
  }

  /// Pushes `files` over a link that fails for good 3 ms in, so the
  /// sender gives up and leaves a half-assembled inbound transfer. Runs
  /// the engine until a second before the receiver's idle timeout, so
  /// the abandoned transfer is still open on return; returns whether
  /// the push succeeded.
  bool abandon_push(std::vector<BundleFile> files) {
    auto transport = std::make_shared<Loopback>(engine, service, 2);
    TransferOptions options;
    options.max_resume_attempts = 1;  // give up on the first outage
    options.max_chunk_retries = 0;
    engine.after(sim::msec(3), [transport] {
      transport->fail_next_calls = 1'000'000;
    });
    auto pushed = std::make_shared<std::optional<bool>>();
    manager.push(transport, PushSpec{"FZ-Juelich", token}, std::move(files),
                 options, [pushed](util::Result<TransferStats> result) {
                   *pushed = result.ok();
                 });
    engine.run_until(engine.now() + service.limits().idle_timeout -
                     sim::sec(1));
    EXPECT_TRUE(pushed->has_value()) << "the sender never gave up";
    return pushed->value_or(true);
  }

  /// Hands one request body to the service as the peer NJS, the way
  /// the server layer does.
  util::Result<util::Bytes> serve(Op op, const util::Bytes& wire) {
    util::ByteReader r{wire};
    auto role = static_cast<Role>(r.u8());
    const crypto::DistinguishedName peer = dn("peer-njs");
    if (op == Op::kOpen) return service.open(peer, true, role, r);
    if (op == Op::kChunk) return service.chunk(peer, true, role, r);
    return service.close(peer, true, role, r);
  }

  util::Result<TransferStats> push_blob(std::shared_ptr<Loopback> transport,
                                        const uspace::FileBlob& blob,
                                        const std::string& name,
                                        const TransferOptions& options = {}) {
    return push_files(
        std::move(transport),
        {{name, std::make_shared<const uspace::FileBlob>(blob)}}, options);
  }

  util::Result<PullResult> pull_names(std::shared_ptr<Loopback> transport,
                                      PullSpec spec,
                                      const TransferOptions& options = {}) {
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
  util::Result<util::Bytes> push_declaring(const uspace::FileBlob& blob,
                                           const crypto::Digest& identity,
                                           const std::string& name);
  void expect_forged_push_refused(const std::string& name);
};

TEST_F(TransferFixture, PushStripesChunksOverParallelStreams) {
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(32 << 20, 21);
  auto stats = push_blob(transport, blob, "striped.bin");
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().bytes, 32ull << 20);
  EXPECT_EQ(stats.value().chunks, 32u);  // 32 MiB / 1 MiB
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
  auto stats = push_blob(transport, blob, "real.txt");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks, 1u);
  auto fetched = njs.fetch_file_shared(token, "real.txt");
  ASSERT_TRUE(fetched.ok());
  ASSERT_NE(fetched.value()->bytes(), nullptr);  // content, not identity
  EXPECT_EQ(*fetched.value()->bytes(), *blob.bytes());
}

/// `files` hold 16 chunks.
void TransferFixture::expect_lost_acks_apply_once(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->drop_next_acks = 3;  // applied, but the sender never hears
  auto stats = push_files(transport, files);
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
  expect_lost_acks_apply_once(make_files(1, 16 << 20, "lossy.bin", 8));
}

TEST_F(TransferFixture, BundleLostAckRedeliversWithoutApplyingTwice) {
  expect_lost_acks_apply_once(make_files(8, 2 << 20, "lossy/f"));
}

TEST_F(TransferFixture, TransientOpenFailureRetriesViaResumeLadder) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->fail_next_calls = 1;  // the open itself dies on the wire
  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 3);
  auto stats = push_blob(transport, blob, "retry.bin");
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(delivered_checksum("retry.bin"), blob.checksum());
}

/// `files` hold 64 chunks.
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
  auto stats = push_files(transport, files);
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
  expect_crash_resumes_from_journal(make_files(1, 64 << 20, "crashy.bin", 13));
}

TEST_F(TransferFixture, ReceiverCrashMidBundleResumesFromJournal) {
  // 8 files of 8 MiB whose chunks interleave.
  expect_crash_resumes_from_journal(make_files(8, 8 << 20, "crashy/f"));
}

void TransferFixture::expect_tombstone_makes_repush_cheap(
    const std::vector<BundleFile>& files, std::uint64_t chunks) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto first = push_files(transport, files);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, chunks);

  // Same files, same destination: the durable bundle key matches the
  // kXferBundleDone tombstone, so the re-push moves zero chunks in a
  // single open round trip.
  auto second = push_files(transport, files);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);
  EXPECT_EQ(service.chunks_applied(), chunks);
  expect_delivered(files);
}

TEST_F(TransferFixture, CompletedTransferTombstoneMakesRepushCheap) {
  expect_tombstone_makes_repush_cheap(make_files(1, 16 << 20, "twice.bin", 30),
                                      16);
}

TEST_F(TransferFixture, CompletedBundleTombstoneMakesRepushCheap) {
  expect_tombstone_makes_repush_cheap(make_files(6, 2 << 20, "twice/f"), 12);
}

// An open reply that does not decode, or that names a chunk size other
// than 1 MiB (which a sender must not adopt), is malformed: the
// transfer ends once, after the resume ladder.
TEST_F(TransferFixture, MalformedOpenReplyFailsOnceAfterTheResumeLadder) {
  ASSERT_TRUE(njs.deliver_file(token, "out.bin",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::synthetic(16 << 20, 4)))
                  .ok());
  TransferOptions options;
  options.max_resume_attempts = 2;
  std::vector<std::optional<std::uint32_t>> resized{std::nullopt};
  resized.insert(resized.end(), std::begin(kOtherChunkSizes),
                 std::end(kOtherChunkSizes));
  for (std::optional<std::uint32_t> chunk_bytes : resized) {
    for (bool push : {true, false}) {
      SCOPED_TRACE(std::string(push ? "push" : "pull") +
                   (chunk_bytes ? " naming " + std::to_string(*chunk_bytes)
                                : " garbled"));
      auto transport = std::make_shared<Loopback>(engine, service, 2);
      if (chunk_bytes)
        transport->rewrite = [push, chunk_bytes](Op op, util::Bytes& body) {
          if (op == Op::kOpen)
            body = testing::splice_u32(
                body, push ? kPushReplyChunkField : kPullReplyChunkField,
                *chunk_bytes);
        };
      else
        transport->garble = Op::kOpen;
      int callbacks = 0;
      std::optional<util::Error> error;
      auto record = [&](util::Status status) {
        ++callbacks;
        if (!status.ok()) error = status.error();
      };
      if (push)
        manager.push(transport, PushSpec{"FZ-Juelich", token},
                     make_files(2, 2 << 20, "garbled/f"), options,
                     [&](util::Result<TransferStats> r) {
                       record(r.ok() ? util::Status()
                                     : util::Status(r.error()));
                     });
      else
        manager.pull(transport,
                     PullSpec{Role::kPeerPull, token, {"out.bin"}, nullptr},
                     options, [&](util::Result<PullResult> r) {
                       record(r.ok() ? util::Status()
                                     : util::Status(r.error()));
                     });
      engine.run();  // must not throw out of the transport callback
      EXPECT_EQ(callbacks, 1);
      ASSERT_TRUE(error.has_value());
      EXPECT_EQ(error->code, util::ErrorCode::kUnavailable);
      EXPECT_NE(error->message.find("malformed open reply"), std::string::npos)
          << error->message;
    }
  }
  EXPECT_EQ(service.chunks_applied(), 0u);
}

// An open naming any chunk size but 1 MiB fails its reader: the
// service answers kInvalidArgument and opens nothing.
TEST_F(TransferFixture, OpenNamingAnotherChunkSizeIsRefused) {
  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 5);
  ASSERT_TRUE(njs.deliver_file(token, "out.bin",
                               std::make_shared<const uspace::FileBlob>(blob))
                  .ok());
  BundleOpenRequest push;
  push.token = token;
  push.files.push_back(
      {"in.bin", blob.size(), blob.checksum(), true, blob.chunk_digests()});
  push.key = make_bundle_key("FZ-Juelich", token, push.files);
  BundlePullOpenRequest pull;
  pull.token = token;
  pull.names = {"out.bin"};
  for (std::uint32_t chunk_bytes : kOtherChunkSizes) {
    SCOPED_TRACE(chunk_bytes);
    const util::Bytes push_wire =
        testing::splice_u32(push.encode(), kPushOpenChunkField, chunk_bytes);
    const util::Bytes pull_wire =
        testing::splice_u32(pull.encode(), kPullOpenChunkField, chunk_bytes);
    for (const auto& opened :
         {serve(Op::kOpen, push_wire), serve(Op::kOpen, pull_wire)}) {
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.error().code, util::ErrorCode::kInvalidArgument);
    }
    EXPECT_EQ(service.inbound_open(), 0u);
    EXPECT_EQ(service.outbound_open(), 0u);
  }
  // As written, at 1 MiB, both open.
  ASSERT_TRUE(serve(Op::kOpen, push.encode()).ok());
  ASSERT_TRUE(serve(Op::kOpen, pull.encode()).ok());
  EXPECT_EQ(service.inbound_open(), 1u);
  EXPECT_EQ(service.outbound_open(), 1u);
}

TEST_F(TransferFixture, MalformedChunkReplyFailsOnceAfterTheResumeLadder) {
  ASSERT_TRUE(njs.deliver_file(token, "out.bin",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::synthetic(16 << 20, 4)))
                  .ok());
  TransferOptions options;
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
                   make_files(2, 16 << 20, "garbled/f"), options,
                   [&](util::Result<TransferStats> r) {
                     record(r.ok() ? util::Status() : util::Status(r.error()));
                   });
    else
      manager.pull(transport,
                   PullSpec{Role::kPeerPull, token, {"out.bin"}, nullptr},
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
  util::Bytes content(5 * kDefaultChunkBytes);
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<std::uint8_t>(i % 251);
  uspace::FileBlob blob = uspace::FileBlob::from_bytes(content);
  ASSERT_TRUE(njs.deliver_file(token, "varied.bin",
                               std::make_shared<const uspace::FileBlob>(blob))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->misindex_pulled_chunks = 1;
  auto out = pull_names(
      transport, PullSpec{Role::kPeerPull, token, {"varied.bin"}, nullptr});
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
};

/// `files` hold 16 chunks.
void StoreTransferFixture::expect_repush_to_new_names_moves_nothing(
    const std::vector<BundleFile>& files) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto first = push_files(transport, files);
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
  auto second = push_files(transport, renamed);
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
      make_files(1, 16 << 20, "cold.bin", 30));
}

TEST_F(StoreTransferFixture, BundleRepushToNewNamesDedupsWholeBatchInOneRtt) {
  expect_repush_to_new_names_moves_nothing(make_files(8, 2 << 20, "cold/f"));
}

TEST_F(StoreTransferFixture, CrashResumeLeavesNoOrphanedRefcounts) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(64 << 20, 13);

  // The crash destroys the in-flight assembly (its chunk refs must be
  // released), recovery folds the journaled chunks back in (their refs
  // must be re-taken), and the resumed transfer fills the rest.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });

  auto stats = push_blob(transport, blob, "crashy.bin");
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
  // Let the open and the first chunks through, then cut the link for
  // good: the sender abandons a half-assembled inbound transfer whose
  // chunks hold store refs.
  ASSERT_FALSE(abandon_push(make_files(1, 16 << 20, "doomed.bin", 5)));
  ASSERT_EQ(service.inbound_open(), 1u);
  EXPECT_GT(chunk_store->stats().total_refs, 0u);

  // Idle past the timeout, the transfer is dropped: every in-flight
  // assembly's refs must be released, leaving the store empty (the
  // receiver job's own files predate the store and pin nothing).
  engine.run();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

TEST_F(StoreTransferFixture, RecoveredTransferExpiresWhenItsSenderIsGone) {
  ASSERT_FALSE(abandon_push(make_files(1, 16 << 20, "orphan.bin", 6)));
  njs.crash();
  ASSERT_TRUE(njs.recover().ok());
  // Recovery rebuilt the transfer from the journal, and its chunks took
  // their refs again; no sender comes back for it.
  ASSERT_EQ(service.inbound_open(), 1u);
  EXPECT_GT(chunk_store->stats().total_refs, 0u);
  engine.run();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
}

TEST_F(StoreTransferFixture, ExpiredTransferStaysGoneAfterRecovery) {
  std::vector<BundleFile> files = make_files(1, 16 << 20, "lapsed.bin", 7);
  ASSERT_FALSE(abandon_push(files));
  ASSERT_EQ(service.inbound_open(), 1u);
  engine.run();  // idles out
  ASSERT_EQ(service.inbound_open(), 0u);
  ASSERT_EQ(chunk_store->stats().total_refs, 0u);

  // The expiry is journaled, so recovery neither rebuilds the bundle nor
  // takes its chunk references again.
  njs.crash();
  ASSERT_TRUE(njs.recover().ok());
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(service.transfers_recovered(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);

  // Expired is not committed: a sender that re-opens the bundle by its
  // key starts over and completes.
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto stats = push_files(transport, files);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().chunks, 16u);
  expect_delivered(files);
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
}

TEST_F(StoreTransferFixture, ReapReclaimsPhysicalBytesAndRecordsMetric) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  chunk_store->set_metrics(registry, "LRZ");
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  // Real payload so physical bytes are non-zero. The constant fill
  // makes all four 1 MiB chunks identical: intra-file dedup stores
  // exactly one physical chunk for a 4 MiB file.
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Bytes(4 << 20, 0xab));
  auto stats = push_blob(transport, blob, "data.bin");
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(chunk_store->stats().physical_bytes, 1u << 20);
  EXPECT_EQ(chunk_store->stats().logical_bytes, 4u << 20);

  auto freed = njs.reap_storage(token);
  ASSERT_TRUE(freed.ok()) << freed.error().to_string();
  // Reaping released the files' pins: the payload is physically gone.
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  auto snapshot = registry->snapshot();
  const obs::MetricPoint* reclaimed = snapshot.find(
      "unicore_store_reap_reclaimed_bytes_total", {{"usite", "LRZ"}});
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_EQ(reclaimed->value, double(1 << 20));
}

TEST_F(TransferFixture, BackpressureShrinksCreditButCompletes) {
  Service::Limits limits;
  limits.buffer_limit_bytes = 4 << 20;  // exactly the file size
  limits.max_credit = 2;
  service.set_limits(limits);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::from_string(
      std::string(4 << 20, 'b'));
  TransferOptions options;
  options.window_per_stream = 8;  // ask for far more than the credit
  auto stats = push_blob(transport, blob, "tight.bin", options);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(delivered_checksum("tight.bin"), blob.checksum());
  EXPECT_EQ(service.inbound_open(), 0u);
}

void TransferFixture::expect_pull_matches_source(
    const std::vector<BundleFile>& files, std::uint64_t chunks) {
  PullSpec spec{Role::kPeerPull, token, {}, nullptr};
  for (const BundleFile& file : files) {
    ASSERT_TRUE(njs.deliver_file(token, file.name, file.blob).ok());
    spec.names.push_back(file.name);
  }
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  auto out = pull_names(transport, spec);
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
  expect_pull_matches_source(make_files(1, 48 << 20, "out.bin", 17), 48);
}

TEST_F(TransferFixture, PullBundleFetchesEveryFileInOneOpen) {
  expect_pull_matches_source(make_files(10, 2 << 20, "out/f"), 20);
}

TEST_F(TransferFixture, PullSmallFileInlinesInOpenReply) {
  ASSERT_TRUE(njs.deliver_file(token, "note.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("n")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto out = pull_names(
      transport, PullSpec{Role::kPeerPull, token, {"note.txt"}, nullptr});
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
  auto both = pull_names(
      transport,
      PullSpec{Role::kPeerPull, token, {"note.txt", "note2.txt"}, nullptr});
  ASSERT_TRUE(both.ok()) << both.error().to_string();
  EXPECT_FALSE(both.value().stats.inlined);
  EXPECT_EQ(both.value().stats.chunks, 2u);
}

// An inline reply whose content was damaged in flight decodes as no
// reply does: the puller re-opens, and with every reply damaged the pull
// ends in an error without a blob.
TEST_F(TransferFixture, PullRefusesADamagedInlineReply) {
  ASSERT_TRUE(njs.deliver_file(token, "note.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("a note")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  int damaged = 0;
  transport->rewrite = [&damaged](Op op, util::Bytes& body) {
    if (op != Op::kOpen) return;
    body.back() ^= 0x01;  // the inline blob's last content byte
    ++damaged;
  };
  TransferOptions options;
  options.max_resume_attempts = 2;
  PullSpec spec;
  spec.token = token;
  spec.names = {"note.txt"};
  auto out = pull_names(transport, spec, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, util::ErrorCode::kUnavailable);
  EXPECT_EQ(damaged, 3);  // the open and both re-opens
}

TEST_F(TransferFixture, ClientPullEnforcesJobOwnership) {
  ASSERT_TRUE(njs.deliver_file(token, "secret.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("s")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 1);
  transport->client_dn = dn("Mallory");  // not the job owner
  TransferOptions options;
  options.max_resume_attempts = 1;  // permission errors must not retry long
  auto out = pull_names(
      transport, PullSpec{Role::kClientPull, token, {"secret.txt"}, nullptr},
      options);
  ASSERT_FALSE(out.ok());
}

// ---- bundles of many files -------------------------------------------------

TEST_F(TransferFixture, BundlePushDeliversEveryFileInOneOpen) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  std::vector<BundleFile> files = make_files(12, 2 << 20);  // 2 chunks each

  auto stats = push_files(transport, files);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 12u);
  EXPECT_EQ(stats.value().bytes, 12u * (2 << 20));
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
                                  uspace::FileBlob::synthetic(16 << 20, 7))});
  files.push_back({"note.txt", std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("hello"))});
  files.push_back({"mid.bin", std::make_shared<const uspace::FileBlob>(
                                  uspace::FileBlob::synthetic(3 << 20, 9))});
  auto stats = push_files(transport, files);
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
  auto stats = push_files(transport, make_files(kMaxBundleFiles + 1, 1, "t"));
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
  std::vector<BundleFile> files = make_files(6, 2 << 20, "out");
  for (const auto& f : files)
    ASSERT_TRUE(njs.deliver_file(token, f.name, f.blob).ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  PullSpec spec;
  spec.role = Role::kPeerPull;
  spec.token = token;
  spec.store = std::make_shared<store::ChunkStore>();
  for (const auto& f : files) spec.names.push_back(f.name);

  auto cold = pull_names(transport, spec);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(cold.value().stats.chunks, 12u);

  // The cold pull interned every chunk into the local store (the
  // result blobs pin them). A second pull of the same files settles
  // entirely from the open reply's manifests: zero chunk requests.
  auto warm = pull_names(transport, spec);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_EQ(warm.value().stats.chunks, 0u);
  EXPECT_EQ(warm.value().stats.deduped, 12u);
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(warm.value().blobs[i].checksum(), files[i].blob->checksum());
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
  // Six real files of three chunks; each drains on delivery.
  std::vector<BundleFile> files = make_real_files(6, 3 << 20, "buf/f");
  auto stats = push_files(transport, files);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().chunks, 19u);  // one resent
  EXPECT_EQ(stats.value().retransmits, 1u);
  EXPECT_EQ(service.chunks_applied(), 18u);
  EXPECT_EQ(checks, 1u + 18u + 1u);  // open, chunks, close
  EXPECT_GE(peak, double(4 * kDefaultChunkBytes));  // two files half-assembled
  expect_delivered(files);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
}

TEST_F(TransferFixture, BufferedBytesGaugeReadsZeroAfterAbandonAndRecovery) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  std::vector<BundleFile> files = make_real_files(1, 16 << 20, "lost.bin");
  // The sender gives up mid-transfer, leaving a half-assembled file.
  ASSERT_FALSE(abandon_push(files));
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
  auto resumed =
      push_files(std::make_shared<Loopback>(engine, service, 2), files);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_LT(resumed.value().chunks, 16u);  // the journaled ones stay put
  expect_delivered(files);
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
}

TEST_F(TransferFixture, AbandonedTransferExpiresAndZeroesTheGauges) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  ASSERT_FALSE(abandon_push(make_real_files(2, 16 << 20, "idle/f")));
  ASSERT_EQ(service.inbound_open(), 1u);
  EXPECT_GT(buffered_gauge(*registry), 0.0);

  engine.run();  // the idle timeout fires
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
  EXPECT_EQ(buffered_gauge(*registry), 0.0);
  EXPECT_EQ(registry->snapshot().total("unicore_xfer_open_inbound"), 0.0);
}

TEST_F(TransferFixture, TransferThatKeepsSendingIsNeverExpired) {
  Service::Limits limits;
  limits.idle_timeout = sim::sec(30);
  service.set_limits(limits);
  uspace::FileBlob blob =
      uspace::FileBlob::synthetic(4 * kDefaultChunkBytes, 8);
  BundleOpenRequest open;
  open.token = token;
  open.files.push_back({"slow.bin", blob.size(), blob.checksum(), true, {}});
  open.key = make_bundle_key("FZ-Juelich", token, open.files);
  auto opened = serve(Op::kOpen, open.encode());
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  util::ByteReader reply_reader{opened.value()};
  BundleOpenReply reply = BundleOpenReply::decode(reply_reader);
  ASSERT_TRUE(reply_reader.ok());

  // One chunk every 20 s, inside the 30 s timeout: the transfer lives
  // 100 s, far past it, and is never dropped.
  for (std::uint64_t index = 0; index < 4; ++index) {
    engine.run_until(engine.now() + sim::sec(20));
    ASSERT_EQ(service.inbound_open(), 1u) << index;
    BundleChunkRequest request;
    request.transfer_id = reply.transfer_id;
    request.chunk = make_chunk(blob, index);
    ASSERT_TRUE(serve(Op::kChunk, request.encode()).ok()) << index;
  }
  engine.run_until(engine.now() + sim::sec(20));
  BundleCloseRequest close;
  close.transfer_id = reply.transfer_id;
  close.key = open.key;
  auto closed = serve(Op::kClose, close.encode());
  ASSERT_TRUE(closed.ok()) << closed.error().to_string();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(delivered_checksum("slow.bin"), blob.checksum());
}

TEST_F(TransferFixture, ReceiveWindowFullFiresAtTheBufferLimit) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  Service::Limits limits;
  limits.buffer_limit_bytes = 2 * kDefaultChunkBytes;
  service.set_limits(limits);
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Rng(7).bytes(4 * kDefaultChunkBytes));

  BundleOpenRequest open;
  open.role = Role::kPush;
  open.token = token;
  open.files.push_back({"window.bin", blob.size(), blob.checksum(), false,
                        blob.chunk_digests()});
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
    request.chunk = make_chunk(blob, index);
    util::Bytes wire = request.encode();
    util::ByteReader r{wire};
    r.u8();  // the role byte
    return service.chunk(dn("peer-njs"), /*server_peer=*/true, Role::kPush, r);
  };
  // Filling the buffer exactly to the limit is allowed; one byte past
  // it is not, and the rejected chunk leaves the total untouched.
  ASSERT_TRUE(send(0).ok());
  ASSERT_TRUE(send(1).ok());
  EXPECT_EQ(buffered_gauge(*registry), double(2 * kDefaultChunkBytes));
  auto full = send(2);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(buffered_gauge(*registry), double(2 * kDefaultChunkBytes));
  EXPECT_EQ(service.buffered_in_assemblies(), 2u * kDefaultChunkBytes);
}

// ---- a push that declares another file's identity --------------------------
//
// The FinishIdentity cases of test_chunker.cpp through the receiving
// service: the open's digests and every chunk are the file's own, only
// the identity declared at open is another file's of the same size.

/// Three chunks at the identity granularity.
constexpr std::size_t kForgedBytes = 2 * kDefaultChunkBytes + 77;

uspace::FileBlob forged_content(std::uint64_t seed) {
  return uspace::FileBlob::from_bytes(util::Rng(seed).bytes(kForgedBytes));
}

/// Pushes `blob` by hand, declaring `identity` for it at open, and
/// returns the first refusal, or else the close's result.
util::Result<util::Bytes> TransferFixture::push_declaring(
    const uspace::FileBlob& blob, const crypto::Digest& identity,
    const std::string& name) {
  BundleOpenRequest open;
  open.token = token;
  open.files.push_back(
      {name, blob.size(), identity, false, blob.chunk_digests()});
  open.key = make_bundle_key("FZ-Juelich", token, open.files);
  auto opened = serve(Op::kOpen, open.encode());
  if (!opened.ok()) return opened.error();
  util::ByteReader reply_reader{opened.value()};
  BundleOpenReply reply = BundleOpenReply::decode(reply_reader);
  ChunkBitmap have(chunk_count(blob.size()));
  if (reply.files[0].complete)
    have.apply({ChunkRange{0, have.total()}});
  else
    have.apply(reply.files[0].have);
  for (std::uint64_t index : have.missing()) {
    BundleChunkRequest request;
    request.transfer_id = reply.transfer_id;
    request.chunk = make_chunk(blob, index);
    auto sent = serve(Op::kChunk, request.encode());
    if (!sent.ok()) return sent.error();
  }
  BundleCloseRequest close;
  close.transfer_id = reply.transfer_id;
  close.key = open.key;
  return serve(Op::kClose, close.encode());
}

/// The file named `name` is never delivered, the push cannot commit,
/// and the refusal ends the transfer at once: nothing of it stays open,
/// and a crash and recovery do not rebuild it.
void TransferFixture::expect_forged_push_refused(const std::string& name) {
  std::uint64_t delivered = service.files_delivered();
  const std::size_t inbound = service.inbound_open();
  const crypto::Digest another = forged_content(22).checksum();
  auto refused = push_declaring(forged_content(21), another, name);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, util::ErrorCode::kInternal);
  EXPECT_EQ(service.files_delivered(), delivered);
  EXPECT_FALSE(njs.fetch_file_shared(token, name).ok());
  EXPECT_EQ(service.inbound_open(), inbound);
  EXPECT_EQ(service.buffered_in_assemblies(), 0u);
  njs.crash();
  njs.recover();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(service.transfers_recovered(), 0u);
}

TEST_F(TransferFixture, ForgedIdentityPushIsNeverDeliveredFromBuffers) {
  expect_forged_push_refused("native.bin");
  // Nor when its open names a 64 KiB chunk: the open itself is refused.
  const uspace::FileBlob content = forged_content(21);
  BundleOpenRequest open;
  open.token = token;
  open.files.push_back({"small.bin", content.size(),
                        forged_content(22).checksum(), false,
                        content.chunk_digests()});
  open.key = make_bundle_key("FZ-Juelich", token, open.files);
  const std::size_t inbound = service.inbound_open();
  auto opened = serve(Op::kOpen, testing::splice_u32(open.encode(),
                                                     kPushOpenChunkField,
                                                     64 << 10));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.inbound_open(), inbound);
  EXPECT_FALSE(njs.fetch_file_shared(token, "small.bin").ok());
}

TEST_F(StoreTransferFixture, ForgedIdentityPushIsNeverDeliveredFromTheStore) {
  expect_forged_push_refused("forged.bin");
  // The refused transfer's references went with it.
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

TEST_F(StoreTransferFixture, ForgedIdentityOfStoredChunksIsNeverDelivered) {
  uspace::FileBlob blob = forged_content(21);
  ASSERT_TRUE(push_declaring(blob, blob.checksum(), "genuine.bin").ok());
  auto genuine = njs.fetch_file_shared(token, "genuine.bin");
  ASSERT_TRUE(genuine.ok());
  EXPECT_EQ(genuine.value()->checksum(), blob.checksum());
  const std::uint64_t refs = chunk_store->stats().total_refs;
  const std::uint64_t deduped = service.chunks_deduped();
  // The open satisfies every chunk from the store; only the identity
  // check stands between them and a delivery.
  expect_forged_push_refused("forged.bin");
  EXPECT_EQ(service.chunks_deduped() - deduped, 3u);
  EXPECT_EQ(chunk_store->stats().total_refs, refs);  // genuine.bin's own
}

// A store-mode file whose delivery fails once, on a full Uspace, is
// delivered by the close's retry once the space is free: the assembly
// keeps the references its finish() moved into the blob's pin.
struct FullUspaceStoreTransferFixture : public StoreTransferFixture {
  static constexpr std::uint64_t kQuota = 4 << 20;
  FullUspaceStoreTransferFixture() { uspace_quota_bytes = kQuota; }
};

TEST_F(FullUspaceStoreTransferFixture, FailedDeliveryIsRetriedAtClose) {
  const auto filler = [](std::uint64_t bytes) {
    return std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::synthetic(bytes, 1));
  };
  ASSERT_TRUE(njs.deliver_file(token, "filler", filler(kQuota - (512 << 10)))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 1);
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Rng(31).bytes(1 << 20));
  int calls = 0;
  transport->after_dispatch = [&] {
    // The open, then the file's one chunk: it was applied, but writing
    // the file hit the quota, so it answered kResourceExhausted (which
    // the sender retries). Free the space before that retry and the
    // close.
    if (++calls != 2) return;
    EXPECT_EQ(service.chunks_applied(), 1u);
    EXPECT_FALSE(njs.fetch_file_shared(token, "late.bin").ok());
    // The undelivered file still holds its chunk's reference.
    EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage() + 1);
    EXPECT_TRUE(njs.deliver_file(token, "filler", filler(1)).ok());
  };
  auto stats = push_blob(transport, blob, "late.bin");  // one chunk
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(service.chunks_applied(), 1u);
  EXPECT_EQ(service.duplicates_suppressed(), 1u);  // the retried chunk
  EXPECT_EQ(service.files_delivered(), 1u);
  EXPECT_EQ(delivered_checksum("late.bin"), blob.checksum());
  {
    auto delivered = njs.fetch_file_shared(token, "late.bin");
    ASSERT_TRUE(delivered.ok());
    util::Bytes content;
    ASSERT_TRUE(delivered.value()->read_range(0, blob.size(), content).ok());
    EXPECT_EQ(content, *blob.bytes());
  }
  // The stored files' pins hold every reference: late.bin's one chunk
  // and the filler's.
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 2u);
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
  ASSERT_TRUE(njs.reap_storage(token).ok());
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

}  // namespace
}  // namespace unicore::xfer
