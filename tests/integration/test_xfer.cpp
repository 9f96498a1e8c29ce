// The chunked transfer engine end-to-end across two Usites and down to
// the client: partition mid-kXferChunk, ack-loss bursts, a receiver
// NJS crash between journal append and acknowledgement, the v1-peer
// whole-blob fallback, chunked client output fetches, and trees moved
// as bundles (a single file is a bundle of one). The core
// invariant throughout: a disturbed transfer resumes from the last
// acked chunk, the delivered file's checksum matches the source, and
// no chunk is ever applied twice.
#include <gtest/gtest.h>

#include <optional>

#include "client/sync_client.h"
#include "common/test_env.h"
#include "net/faults.h"

namespace unicore {
namespace {

struct XferSites {
  grid::Grid grid{42};
  crypto::Credential user;
  crypto::TrustStore trust;
  server::UsiteServer* fz = nullptr;
  server::UsiteServer* ruka = nullptr;
  std::shared_ptr<njs::JournalStore> journal_store =
      std::make_shared<njs::JournalStore>();
  ajo::JobToken receiver = 0;  // finished job at RUKA; its Uspace is the
                               // target of every delivery below

  XferSites() {
    fz = &add("FZ-Juelich", "gw.fz-juelich.de",
              batch::make_cray_t3e("T3E-600", 64));
    ruka = &add("RUKA", "gw.ruka.de", batch::make_ibm_sp2("SP2", 32));
    user = grid.create_user("Jane Doe", "Test Org", "jane@example.de");
    (void)grid.map_user(user.certificate.subject, "FZ-Juelich", "ucjdoe",
                        {"project-a"});
    (void)grid.map_user(user.certificate.subject, "RUKA", "rkjdoe",
                        {"project-a"});
    grid.connect_all_peers();
    trust = grid.make_trust_store();

    // Journal the receiver so it survives the crash scenarios.
    ruka->njs().set_journal(std::make_shared<njs::Journal>(journal_store));

    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "SP2";
    job.user = user.certificate.subject;
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("prepare");
    task->script = "true\n";
    task->set_resource_request({1, 600, 64, 0, 8});
    task->behavior.nominal_seconds = 1;
    job.add(std::move(task));
    gateway::AuthenticatedUser auth{user.certificate.subject, "rkjdoe",
                                    {"project-a"}};
    auto token = ruka->njs().consign(job, auth, user.certificate);
    receiver = token.value();
    grid.engine().run();
  }

  server::UsiteServer& add(const std::string& name, const std::string& host,
                           batch::SystemConfig system) {
    grid::Grid::SiteSpec spec;
    spec.config.name = name;
    spec.config.gateway_host = host;
    spec.config.port = 4433;
    njs::Njs::VsiteConfig vsite;
    vsite.system = std::move(system);
    spec.vsites.push_back(std::move(vsite));
    return grid.add_site(std::move(spec));
  }

  util::Status deliver(const std::shared_ptr<const uspace::FileBlob>& blob,
                       const std::string& name) {
    std::optional<util::Status> out;
    fz->deliver_file(njs::RemoteJobHandle{"RUKA", receiver}, name, blob,
                     [&](util::Status status) { out = status; });
    while (!out && grid.engine().step()) {
    }
    if (!out)
      return util::make_error(util::ErrorCode::kInternal,
                              "event queue drained before delivery finished");
    return *out;
  }

  crypto::Digest delivered_checksum(const std::string& name) {
    auto blob = ruka->njs().fetch_file_shared(receiver, name);
    EXPECT_TRUE(blob.ok()) << blob.error().to_string();
    return blob.ok() ? blob.value()->checksum() : crypto::Digest{};
  }

  /// Fast retry/backoff so fault scenarios settle in simulated seconds.
  void snappy_sender() {
    xfer::TransferOptions options = fz->transfer_options();
    options.backoff.initial_us = sim::msec(250);
    options.backoff.max_us = sim::sec(2);
    options.backoff.jitter = 0.0;
    fz->set_transfer_options(options);
    fz->set_peer_request_timeout(sim::sec(3));
  }

  std::unique_ptr<client::UnicoreClient> make_client(
      std::size_t transfer_streams) {
    client::UnicoreClient::Config config;
    config.host = "ws.example.de";
    config.user = user;
    config.trust = &trust;
    config.transfer_streams = transfer_streams;
    return std::make_unique<client::UnicoreClient>(grid.engine(),
                                                   grid.network(), grid.rng(),
                                                   config);
  }
};

TEST(XferIntegration, ChunkedDeliveryEndToEnd) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(4);
  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(8 << 20, 11));
  ASSERT_TRUE(sites.deliver(blob, "result.bin").ok());
  EXPECT_EQ(sites.fz->transfer_stats().chunked, 1u);
  EXPECT_EQ(sites.fz->transfer_stats().legacy, 0u);
  EXPECT_EQ(sites.ruka->xfer_service().transfers_completed(), 1u);
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 8u);  // 1 MiB chunks
  EXPECT_EQ(sites.delivered_checksum("result.bin"), blob->checksum());
}

TEST(XferIntegration, SmallFilesStayOnTheLegacyPath) {
  XferSites sites;  // default 4 MiB threshold
  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(64 << 10, 12));
  ASSERT_TRUE(sites.deliver(blob, "small.bin").ok());
  EXPECT_EQ(sites.fz->transfer_stats().legacy, 1u);
  EXPECT_EQ(sites.fz->transfer_stats().chunked, 0u);
  EXPECT_EQ(sites.delivered_checksum("small.bin"), blob->checksum());
}

TEST(XferIntegration, PartitionMidTransferResumesFromLastAckedChunk) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(4);
  sites.snappy_sender();

  // Cut the inter-gateway path shortly after the chunks start flowing,
  // heal it 1.5 simulated seconds later.
  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  sim::Time now = sites.grid.engine().now();
  faults.partition_for(now + sim::msec(300), sim::msec(1500),
                       "gw.fz-juelich.de", "gw.ruka.de");

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(16 << 20, 13));
  util::Status status = sites.deliver(blob, "partitioned.bin");
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  // Zero duplicate applications: every chunk landed exactly once even
  // though the outage forced retransmits and a resume.
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 16u);
  EXPECT_EQ(sites.delivered_checksum("partitioned.bin"), blob->checksum());
  EXPECT_EQ(sites.ruka->xfer_service().inbound_open(), 0u);
}

TEST(XferIntegration, AckLossBurstIsAnsweredAsDuplicates) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(2);
  sites.snappy_sender();

  // Drop three consecutive messages on the ack path (RUKA -> FZJ) once
  // the transfer is underway: the chunks were applied and journaled,
  // only the acknowledgements vanish.
  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  faults.drop_next_at(sites.grid.engine().now() + sim::msec(400),
                      "gw.ruka.de", "gw.fz-juelich.de", 3);

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(8 << 20, 14));
  ASSERT_TRUE(sites.deliver(blob, "lossy.bin").ok());
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 8u);
  EXPECT_GE(sites.ruka->xfer_service().duplicates_suppressed(), 1u);
  EXPECT_EQ(sites.delivered_checksum("lossy.bin"), blob->checksum());
}

TEST(XferIntegration, ReceiverCrashBetweenJournalAndAckResumes) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(4);
  sites.snappy_sender();

  // Crash the receiving NJS while chunks are in flight — anything
  // journaled but not yet acked must be answered as a duplicate after
  // recovery, not applied a second time.
  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  faults.at(sites.grid.engine().now() + sim::msec(400), [&sites] {
    sites.ruka->njs().crash();
    EXPECT_TRUE(sites.ruka->njs().recover().ok());
  });

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(16 << 20, 15));
  util::Status status = sites.deliver(blob, "crashy.bin");
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(sites.ruka->xfer_service().transfers_recovered(), 1u);
  // The applied counter survives the crash: exactly one application per
  // chunk across the whole disturbed transfer.
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 16u);
  EXPECT_EQ(sites.delivered_checksum("crashy.bin"), blob->checksum());
}

TEST(XferIntegration, DedupWarmRestageMovesZeroPayloadChunks) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(4);

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(8 << 20, 31));
  ASSERT_TRUE(sites.deliver(blob, "cold.bin").ok());
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 8u);

  // Same content under a different name: a different durable transfer
  // key, so this is NOT the completed-transfer tombstone — the digest
  // manifest in the open lets RUKA ack every chunk straight out of its
  // content-addressed store. Zero payload chunks cross the wire.
  ASSERT_TRUE(sites.deliver(blob, "warm.bin").ok());
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 8u);  // unchanged
  EXPECT_EQ(sites.ruka->xfer_service().chunks_deduped(), 8u);
  EXPECT_EQ(sites.delivered_checksum("warm.bin"), blob->checksum());

  const store::StoreStats stats = sites.ruka->chunk_store()->stats();
  EXPECT_EQ(stats.chunks, 8u);               // one physical copy
  EXPECT_EQ(stats.logical_bytes, 16u << 20); // two files' worth pinned
  EXPECT_EQ(stats.dedup_hits, 8u);
}

TEST(XferIntegration, PartitionResumeLandsInStoreWithExactRefcounts) {
  XferSites sites;
  sites.fz->set_transfer_threshold(0);
  sites.fz->set_transfer_streams(4);
  sites.snappy_sender();

  const std::uint64_t refs_before =
      sites.ruka->chunk_store()->stats().total_refs;

  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  sim::Time now = sites.grid.engine().now();
  faults.partition_for(now + sim::msec(300), sim::msec(1500),
                       "gw.fz-juelich.de", "gw.ruka.de");

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(16 << 20, 32));
  util::Status status = sites.deliver(blob, "partitioned.bin");
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(sites.delivered_checksum("partitioned.bin"), blob->checksum());
  EXPECT_EQ(sites.ruka->xfer_service().inbound_open(), 0u);
  // The disturbed transfer landed as a manifest of 16 pinned chunks —
  // retransmits and the resume added no extra refcounts.
  EXPECT_EQ(sites.ruka->chunk_store()->stats().total_refs, refs_before + 16);
}

TEST(XferIntegration, ClientFetchesLargeOutputChunked) {
  XferSites sites;

  // A job at FZJ whose only task leaves a 8 MiB output file behind.
  client::JobBuilder builder("producer");
  builder.destination("FZ-Juelich", "T3E-600").account_group("project-a");
  client::TaskOptions options;
  options.resources = {1, 600, 64, 0, 8};
  options.behavior.nominal_seconds = 2;
  options.behavior.output_files = {{"field.out", 8 << 20}};
  builder.script("produce", "./solver > field.out\n", options);
  ajo::AbstractJobObject job =
      builder.build(sites.user.certificate.subject).value();

  auto chunked_client = sites.make_client(/*transfer_streams=*/4);
  client::SyncClient sync(sites.grid.engine(), *chunked_client);
  ASSERT_TRUE(sync.connect(sites.fz->address()).ok());
  auto token = sync.submit(job);
  ASSERT_TRUE(token.ok()) << token.error().to_string();
  sites.grid.engine().run();

  auto chunked = sync.fetch_output(token.value(), "field.out");
  ASSERT_TRUE(chunked.ok()) << chunked.error().to_string();
  EXPECT_EQ(chunked.value().size(), 8ull << 20);
  EXPECT_EQ(chunked_client->output_stats().chunked, 1u);
  EXPECT_EQ(chunked_client->output_stats().legacy, 0u);

  // A streams=0 client takes the legacy whole-blob request and sees the
  // same content.
  auto legacy_client = sites.make_client(/*transfer_streams=*/0);
  client::SyncClient legacy_sync(sites.grid.engine(), *legacy_client);
  ASSERT_TRUE(legacy_sync.connect(sites.fz->address()).ok());
  auto legacy = legacy_sync.fetch_output(token.value(), "field.out");
  ASSERT_TRUE(legacy.ok()) << legacy.error().to_string();
  EXPECT_EQ(legacy_client->output_stats().legacy, 1u);
  EXPECT_EQ(legacy_client->output_stats().chunked, 0u);
  EXPECT_EQ(legacy.value().checksum(), chunked.value().checksum());
}

TEST(XferIntegration, SmallOutputInlinesWithoutChunkTraffic) {
  XferSites sites;
  client::JobBuilder builder("tiny");
  builder.destination("FZ-Juelich", "T3E-600").account_group("project-a");
  client::TaskOptions options;
  options.resources = {1, 600, 64, 0, 8};
  options.behavior.nominal_seconds = 1;
  options.behavior.output_files = {{"note.txt", 1 << 10}};
  builder.script("step", "true\n", options);

  auto client = sites.make_client(/*transfer_streams=*/4);
  client::SyncClient sync(sites.grid.engine(), *client);
  ASSERT_TRUE(sync.connect(sites.fz->address()).ok());
  auto token =
      sync.submit(builder.build(sites.user.certificate.subject).value());
  ASSERT_TRUE(token.ok());
  sites.grid.engine().run();

  // 1 KiB is far below the inline limit: the pull open returns the blob
  // in one round trip — the engine is used, but no chunk requests cross
  // the wire.
  auto out = sync.fetch_output(token.value(), "note.txt");
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().size(), 1u << 10);
  EXPECT_EQ(client->output_stats().chunked, 1u);
  EXPECT_EQ(sites.fz->xfer_service().outbound_open(), 0u);
}

// ---- bundle transfers (docs/DATA.md §3) ------------------------------------

std::vector<std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>
make_tree(std::size_t count, std::uint64_t bytes, const std::string& stem) {
  std::vector<std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>
      files;
  for (std::size_t i = 0; i < count; ++i)
    files.emplace_back(stem + std::to_string(i),
                       std::make_shared<const uspace::FileBlob>(
                           uspace::FileBlob::synthetic(bytes, 500 + i)));
  return files;
}

util::Status deliver_tree(
    XferSites& sites,
    std::vector<std::pair<std::string,
                          std::shared_ptr<const uspace::FileBlob>>>
        files) {
  std::optional<util::Status> out;
  sites.fz->deliver_files(njs::RemoteJobHandle{"RUKA", sites.receiver},
                          std::move(files),
                          [&](util::Status status) { out = status; });
  while (!out && sites.grid.engine().step()) {
  }
  if (!out)
    return util::make_error(util::ErrorCode::kInternal,
                            "event queue drained before delivery finished");
  return *out;
}

TEST(XferIntegration, BundleDeliveryMovesTreeInOneManifestRoundTrip) {
  XferSites sites;
  auto files = make_tree(40, 128 << 10, "tree/f");
  ASSERT_TRUE(deliver_tree(sites, files).ok());
  // One bundle covered all 40 files — not 40 transfers, and none of
  // them took the legacy path despite sitting under the 4 MiB
  // threshold (the bundle carries the batch regardless of size).
  EXPECT_EQ(sites.fz->transfer_stats().chunked, 1u);
  EXPECT_EQ(sites.fz->transfer_stats().legacy, 0u);
  EXPECT_EQ(sites.ruka->xfer_service().transfers_completed(), 1u);
  EXPECT_EQ(sites.ruka->xfer_service().files_delivered(), 40u);
  for (const auto& [name, blob] : files)
    EXPECT_EQ(sites.delivered_checksum(name), blob->checksum());
}

TEST(XferIntegration, PartitionMidBundleResumesFromLastAckedChunk) {
  XferSites sites;
  sites.snappy_sender();

  // Cut the inter-gateway path while bundle chunks are interleaving,
  // heal it 1.5 simulated seconds later: the re-open by bundle key
  // restores every per-file bitmap from the receiver's journal.
  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  sim::Time now = sites.grid.engine().now();
  faults.partition_for(now + sim::msec(300), sim::msec(1500),
                       "gw.fz-juelich.de", "gw.ruka.de");

  auto files = make_tree(16, 1 << 20, "part/f");  // 16 chunks total
  util::Status status = deliver_tree(sites, files);
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  // Zero duplicate applications: every one of the 16 chunks landed
  // exactly once even though the outage forced retransmits and a
  // resume — the same invariant the single-file path keeps.
  EXPECT_EQ(sites.ruka->xfer_service().chunks_applied(), 16u);
  EXPECT_EQ(sites.ruka->xfer_service().files_delivered(), 16u);
  EXPECT_EQ(sites.ruka->xfer_service().inbound_open(), 0u);
  for (const auto& [name, blob] : files)
    EXPECT_EQ(sites.delivered_checksum(name), blob->checksum());
}

TEST(XferIntegration, ClientPushTreeStagesInputsAsOneBundle) {
  XferSites sites;

  client::JobBuilder builder("consumer");
  builder.destination("FZ-Juelich", "T3E-600").account_group("project-a");
  client::TaskOptions options;
  options.resources = {1, 600, 64, 0, 8};
  options.behavior.nominal_seconds = 2;
  builder.script("consume", "./solver mesh/*\n", options);
  ajo::AbstractJobObject job =
      builder.build(sites.user.certificate.subject).value();

  auto client = sites.make_client(/*transfer_streams=*/4);
  client::SyncClient sync(sites.grid.engine(), *client);
  ASSERT_TRUE(sync.connect(sites.fz->address()).ok());
  auto token = sync.submit(job);
  ASSERT_TRUE(token.ok()) << token.error().to_string();

  std::vector<std::pair<std::string, uspace::FileBlob>> inputs;
  for (std::size_t i = 0; i < 25; ++i)
    inputs.emplace_back("mesh/part" + std::to_string(i),
                        uspace::FileBlob::synthetic(96 << 10, 700 + i));
  auto stats = sync.await<xfer::TransferStats>([&](auto done) {
    client->push_tree(token.value(), inputs, std::move(done));
  });
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 25u);
  EXPECT_EQ(stats.value().bundles, 1u);
  EXPECT_EQ(client->output_stats().chunked, 1u);
  EXPECT_EQ(sites.fz->xfer_service().files_delivered(), 25u);
  for (const auto& [name, blob] : inputs) {
    auto staged = sites.fz->njs().fetch_file_shared(token.value(), name);
    ASSERT_TRUE(staged.ok()) << staged.error().to_string();
    EXPECT_EQ(staged.value()->checksum(), blob.checksum());
  }
}

TEST(XferIntegration, ClientFetchTreeFetchesOutputsAsOneBundle) {
  XferSites sites;

  client::JobBuilder builder("producer");
  builder.destination("FZ-Juelich", "T3E-600").account_group("project-a");
  client::TaskOptions options;
  options.resources = {1, 600, 64, 0, 8};
  options.behavior.nominal_seconds = 2;
  options.behavior.output_files = {{"out0", 512 << 10},
                                   {"out1", 512 << 10},
                                   {"out2", 512 << 10}};
  builder.script("produce", "./solver\n", options);

  auto client = sites.make_client(/*transfer_streams=*/4);
  client::SyncClient sync(sites.grid.engine(), *client);
  ASSERT_TRUE(sync.connect(sites.fz->address()).ok());
  auto token =
      sync.submit(builder.build(sites.user.certificate.subject).value());
  ASSERT_TRUE(token.ok()) << token.error().to_string();
  sites.grid.engine().run();

  std::vector<std::string> names{"out0", "out1", "out2"};
  auto blobs = sync.await<std::vector<uspace::FileBlob>>([&](auto done) {
    client->fetch_tree(token.value(), names, std::move(done));
  });
  ASSERT_TRUE(blobs.ok()) << blobs.error().to_string();
  ASSERT_EQ(blobs.value().size(), 3u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto direct = sites.fz->njs().fetch_file_shared(token.value(), names[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(blobs.value()[i].checksum(), direct.value()->checksum());
  }
  // One bundled fetch, not three sequential pulls.
  EXPECT_EQ(client->output_stats().chunked, 1u);
  // The fetch resolves as the last chunk lands; its close (best-effort,
  // no one waits for the reply) then releases the source's read.
  sites.grid.engine().run();
  EXPECT_EQ(sites.fz->xfer_service().outbound_open(), 0u);

  // A streams=0 client sees the same content through one whole-blob
  // request per file.
  auto legacy_client = sites.make_client(/*transfer_streams=*/0);
  client::SyncClient legacy_sync(sites.grid.engine(), *legacy_client);
  ASSERT_TRUE(legacy_sync.connect(sites.fz->address()).ok());
  auto legacy =
      legacy_sync.await<std::vector<uspace::FileBlob>>([&](auto done) {
        legacy_client->fetch_tree(token.value(), names, std::move(done));
      });
  ASSERT_TRUE(legacy.ok()) << legacy.error().to_string();
  EXPECT_EQ(legacy_client->output_stats().chunked, 0u);
  EXPECT_EQ(legacy_client->output_stats().legacy, 3u);
  ASSERT_EQ(legacy.value().size(), 3u);
  EXPECT_EQ(legacy.value()[0].checksum(), blobs.value()[0].checksum());
}

}  // namespace
}  // namespace unicore
