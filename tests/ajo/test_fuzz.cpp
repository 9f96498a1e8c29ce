// Robustness: the decoders must reject arbitrary and mutated inputs
// gracefully (error Results or failed readers, never crashes, throws or
// hangs) — everything they see arrives from the network, a journal or a
// ticket.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ajo/codec.h"
#include "ajo/generator.h"
#include "ajo/job.h"
#include "ajo/outcome.h"
#include "asn1/der.h"
#include "client/client.h"
#include "common/wire_fuzz.h"
#include "crypto/bundle.h"
#include "crypto/x509.h"
#include "njs/cluster.h"
#include "njs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resources/resource_page.h"
#include "server/protocol.h"
#include "server/reply_table.h"
#include "uspace/blob.h"
#include "util/rng.h"
#include "xfer/manifest.h"
#include "xfer/wire.h"

namespace unicore {
namespace {

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    util::Bytes junk = rng.bytes(1 + rng.below(300));
    (void)ajo::decode_action(junk);
    (void)ajo::SignedAjo::decode(junk);
    (void)asn1::decode(junk);
    (void)crypto::Certificate::from_der(junk);
    (void)resources::ResourcePage::decode(junk);
    util::ByteReader outcome_reader(junk);
    (void)ajo::Outcome::decode(outcome_reader);
    util::ByteReader blob_reader(junk);
    (void)uspace::FileBlob::decode(blob_reader);
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, MutatedValidWireHandledGracefully) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  crypto::DistinguishedName user;
  user.common_name = "Fuzz";
  ajo::RandomJobOptions options;
  options.tasks_per_group = 4;
  ajo::AbstractJobObject job = ajo::random_job(rng, options, user);
  util::Bytes wire = ajo::encode_action(job);

  for (int i = 0; i < 300; ++i) {
    util::Bytes mutated = testing::flip_bytes(wire, rng);
    auto decoded = ajo::decode_action(mutated);
    if (decoded.ok()) {
      // If it still parses, the object must be usable: encoding it back
      // and walking it must not blow up.
      (void)ajo::encode_action(*decoded.value());
      if (decoded.value()->is_job()) {
        auto& back = static_cast<ajo::AbstractJobObject&>(*decoded.value());
        (void)back.validate();
        (void)back.total_actions();
      }
    }
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, TruncatedValidWireAlwaysRejected) {
  util::Rng rng(GetParam() ^ 0x5555);
  crypto::DistinguishedName user;
  user.common_name = "Fuzz";
  ajo::RandomJobOptions options;
  ajo::AbstractJobObject job = ajo::random_job(rng, options, user);
  util::Bytes wire = ajo::encode_action(job);
  for (int i = 0; i < 100; ++i) {
    std::size_t cut = rng.below(wire.size());
    util::Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ajo::decode_action(prefix).ok());
  }
}

// ---- every decoder a message, journal record or reply reaches ---------------

using testing::Decode;

/// One decoder under fuzz: a valid encoding, and a call that decodes any
/// bytes the way its production caller does.
struct WireCase {
  std::string name;
  util::Bytes valid;
  Decode decode;
  /// Truncations and forged counts only this close to either end, and
  /// fewer flips: for inputs too large to mutate at every offset.
  std::size_t window = std::numeric_limits<std::size_t>::max();
  int flips = 100;
};

/// `decode` over a ByteReader on the input, as the request and reply
/// paths call the payload codecs.
template <typename F>
Decode reading(F decode) {
  return [decode](const util::Bytes& input) {
    util::ByteReader r(input);
    (void)decode(r);
  };
}

/// `wire` without its first `n` bytes: bodies whose leading role byte or
/// transfer id the server reads before it calls the decoder.
util::Bytes after(util::Bytes wire, std::size_t n) {
  wire.erase(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
  return wire;
}

ajo::Outcome sample_outcome() {
  ajo::Outcome root;
  root.action = 1;
  root.name = "root";
  root.status = ajo::ActionStatus::kSuccessful;
  ajo::Outcome run;
  run.action = 2;
  run.type = ajo::ActionType::kUserTask;
  run.detail = ajo::ExecuteOutcome{3, "out", "err"};
  ajo::Outcome files;
  files.action = 3;
  files.type = ajo::ActionType::kExportTask;
  files.detail = ajo::FileOutcome{{"a.dat", "b.dat"}, 42};
  ajo::Outcome service;
  service.action = 4;
  service.type = ajo::ActionType::kListService;
  service.detail = ajo::ServiceOutcome{"listing"};
  run.children.push_back(std::move(service));
  root.children = {std::move(run), std::move(files)};
  return root;
}

xfer::BundleFileEntry file_entry(std::uint32_t i, std::size_t digests) {
  xfer::BundleFileEntry entry;
  entry.name = "f" + std::to_string(i);
  entry.size = 100 + i;
  entry.checksum = crypto::sha256(entry.name);
  entry.digests.assign(digests, entry.checksum);
  return entry;
}

std::vector<WireCase> wire_cases() {
  util::Rng rng(77);
  crypto::CertificateAuthority ca({"DE", "CA", "", "Root", ""}, rng, 0,
                                  1'000'000);
  crypto::Credential user = ca.issue_credential(
      {"DE", "O", "OU", "Jane", "jane@o.de"}, rng, 0, 100'000,
      crypto::kUsageClientAuth | crypto::kUsageCodeSign);
  crypto::Credential server = ca.issue_credential(
      {"DE", "O", "", "njs", ""}, rng, 0, 100'000, crypto::kUsageServerAuth);
  ajo::RandomJobOptions options;
  options.tasks_per_group = 3;
  options.inline_import_bytes = 16;
  ajo::AbstractJobObject job =
      ajo::random_job(rng, options, user.certificate.subject);
  const ajo::Outcome outcome = sample_outcome();
  const uspace::FileBlob blob = uspace::FileBlob::from_string("payload");
  gateway::AuthenticatedUser owner{user.certificate.subject, "ucjane",
                                   {"project-a", "project-b"}};
  resources::ResourcePage page;
  page.usite = "FZ-Juelich";
  page.vsite = "T3E";
  page.software = {{resources::SoftwareKind::kPackage, "blas", "3"}};

  std::vector<WireCase> cases;
  auto add = [&cases](std::string name, util::Bytes valid, Decode decode) {
    cases.push_back({std::move(name), std::move(valid), std::move(decode)});
  };
  auto encoded = [](const auto& value) {
    util::ByteWriter w;
    value.encode(w);
    return w.take();
  };

  // AJOs, certificates and the other seed-era decoders.
  add("ajo", ajo::encode_action(job), [](const util::Bytes& b) {
    (void)ajo::decode_action(b);
  });
  add("signed ajo", ajo::sign_ajo(job, user).encode(),
      [](const util::Bytes& b) { (void)ajo::SignedAjo::decode(b); });
  add("outcome", encoded(outcome),
      reading([](util::ByteReader& r) { return ajo::Outcome::decode(r); }));
  add("file blob", encoded(blob), reading([](util::ByteReader& r) {
        return uspace::FileBlob::decode(r);
      }));
  add("certificate", user.certificate.der(), [](const util::Bytes& b) {
    (void)crypto::Certificate::from_der(b);
  });
  add("resource page", page.encode(), [](const util::Bytes& b) {
    (void)resources::ResourcePage::decode(b);
  });
  add("software bundle",
      crypto::make_bundle("jpa", 2, util::to_bytes("applet"), user).encode(),
      [](const util::Bytes& b) { (void)crypto::SoftwareBundle::decode(b); });

  // Request payloads the gateway and the NJS decode.
  njs::ForwardedConsignment forwarded;
  forwarded.job = job;
  forwarded.user_certificate = user.certificate;
  forwarded.consignor_certificate = server.certificate;
  forwarded.staged_files = {{"stage.dat", blob},
                            {"big.bin", uspace::FileBlob::synthetic(64, 9)}};
  add("forwarded consignment", server::encode_forwarded(forwarded),
      reading([](util::ByteReader& r) { return server::decode_forwarded(r); }));
  add("user record", encoded(owner), reading([](util::ByteReader& r) {
        return gateway::AuthenticatedUser::decode(r);
      }));

  // Reply envelopes, as every caller's reply table reads them.
  auto resolve = [](const util::Bytes& b) {
    sim::Engine engine;
    server::ReplyTable table(engine, [] { return std::string("timeout"); });
    (void)table.resolve(b);
  };
  add("ok reply", server::make_ok_reply(5, util::to_bytes("body")), resolve);
  add("error reply",
      server::make_error_reply(
          5, util::make_error(util::ErrorCode::kNotFound, "no such job")),
      resolve);

  // The xfer wire: every body the service and the transfer engine read.
  xfer::BundleOpenRequest open;
  open.key = util::Bytes(32, 1);
  open.token = 7;
  for (std::uint32_t i = 0; i < 3; ++i) open.files.push_back(file_entry(i, i));
  add("bundle open", after(open.encode(), 1), reading([](util::ByteReader& r) {
        return xfer::BundleOpenRequest::decode(r);
      }));
  xfer::BundleOpenRequest full = open;
  full.files.clear();
  for (std::uint32_t i = 0; i < xfer::kMaxBundleFiles; ++i)
    full.files.push_back(file_entry(i, 0));
  cases.push_back({"4096-file bundle open", after(full.encode(), 1),
                   reading([](util::ByteReader& r) {
                     return xfer::BundleOpenRequest::decode(r);
                   }),
                   64, 10});
  xfer::BundleOpenReply open_reply;
  open_reply.transfer_id = 9;
  open_reply.files = {{true, {}}, {false, {{0, 2}, {5, 1}}}};
  add("bundle open reply", open_reply.encode(),
      reading([](util::ByteReader& r) {
        return xfer::BundleOpenReply::decode(r);
      }));
  xfer::Chunk chunk = xfer::make_chunk(blob, 0, xfer::kDefaultChunkBytes);
  add("chunk", encoded(chunk),
      reading([](util::ByteReader& r) { return xfer::Chunk::decode(r); }));
  xfer::BundleChunkRequest chunk_request;
  chunk_request.transfer_id = 9;
  chunk_request.chunk = chunk;
  add("bundle chunk", after(chunk_request.encode(), 9),
      reading([](util::ByteReader& r) {
        return xfer::BundleChunkRequest::decode(9, r);
      }));
  add("bundle chunk reply", xfer::BundleChunkReply{true, 4}.encode(),
      reading([](util::ByteReader& r) {
        return xfer::BundleChunkReply::decode(r);
      }));
  xfer::BundlePullChunkRequest pull_chunk;
  pull_chunk.transfer_id = 9;
  pull_chunk.index = 3;
  add("bundle pull chunk", after(pull_chunk.encode(), 9),
      reading([](util::ByteReader& r) {
        return xfer::BundlePullChunkRequest::decode(xfer::Role::kPeerPull, 9,
                                                    r);
      }));
  xfer::BundlePullOpenRequest pull_open;
  pull_open.token = 7;
  pull_open.names = {"stdout", "out/a.dat", ""};
  add("bundle pull open", after(pull_open.encode(), 1),
      reading([](util::ByteReader& r) {
        return xfer::BundlePullOpenRequest::decode(xfer::Role::kClientPull, r);
      }));
  xfer::BundlePullOpenReply pull_reply;
  pull_reply.transfer_id = 9;
  pull_reply.files = {{10, crypto::sha256("a"), false, {crypto::sha256("b")}},
                      {64, crypto::sha256("c"), true, {}}};
  auto pull_reply_decode = reading([](util::ByteReader& r) {
    return xfer::BundlePullOpenReply::decode(r);
  });
  add("bundle pull open reply", pull_reply.encode(), pull_reply_decode);
  xfer::BundlePullOpenReply inline_reply;
  inline_reply.inline_blob = blob;
  add("inline pull open reply", inline_reply.encode(), pull_reply_decode);
  xfer::BundleCloseRequest close;
  close.transfer_id = 9;
  close.key = util::Bytes(32, 1);
  add("bundle close", after(close.encode(), 1),
      reading([](util::ByteReader& r) {
        return xfer::BundleCloseRequest::decode(xfer::Role::kPush, r);
      }));

  // Journal records, each replayed by every fold that reads the journal.
  auto store = std::make_shared<njs::JournalStore>();
  njs::Journal journal(store);
  journal.record_consigned(7, job, owner, user.certificate,
                           util::Bytes(32, 4), {{"in.dat", blob}},
                           sim::sec(3));
  journal.record_batch_submitted(7, "g1/t2", 99);
  journal.record_action_state(7, "g1/t2", ajo::ActionStatus::kRunning);
  journal.record_finalized(7, outcome);
  (void)journal.try_claim("replica-1");
  xfer::BundleManifest manifest;
  manifest.key = open.key;
  manifest.token = 7;
  manifest.principal = server.certificate.subject;
  manifest.files = {{"in.dat", blob.size(), blob.checksum(), false},
                    {"big.bin", 64, crypto::sha256("big"), true}};
  xfer::journal_bundle_manifest(journal, manifest);
  xfer::journal_bundle_chunk(journal, manifest, 0, chunk);
  xfer::journal_bundle_done(journal, manifest);
  xfer::journal_bundle_expired(journal, manifest);
  std::vector<njs::JournalRecord> records;
  store->replay(
      [&records](const njs::JournalRecord& r) { records.push_back(r); });
  for (std::size_t i = 0; i < records.size(); ++i)
    add(std::string("journal ") + njs::journal_record_type_name(records[i].type),
        records[i].payload, [records, i](const util::Bytes& payload) {
          auto replayed = std::make_shared<njs::JournalStore>();
          for (std::size_t j = 0; j < records.size(); ++j)
            replayed->append(j != i ? records[j]
                                    : njs::JournalRecord{records[j].type,
                                                         records[j].token,
                                                         payload});
          njs::Journal journal(replayed);
          (void)journal.recover();
          (void)xfer::recover_bundles(journal);
          (void)xfer::completed_bundle_keys(journal);
          (void)journal.claimant();
        });

  // Metric and trace snapshots.
  obs::MetricsRegistry registry;
  registry.counter("unicore_fuzz_total", {{"usite", "A"}}).increment();
  registry.gauge("unicore_fuzz_depth").set(3);
  registry.histogram("unicore_fuzz_seconds", {{"usite", "A"}}, {0.1, 1.0})
      .observe(0.5);
  add("metrics snapshot", encoded(registry.snapshot()),
      reading([](util::ByteReader& r) {
        return obs::MetricsSnapshot::decode(r);
      }));
  obs::TraceTimeline trace;
  obs::SpanId root = trace.begin("consign", 0);
  trace.annotate(trace.record("dispatch", 1, 5, root), "vsite", "T3E");
  trace.end(root, 9);
  add("trace timeline", encoded(trace), reading([](util::ByteReader& r) {
        return obs::TraceTimeline::decode(r);
      }));

  // The client's reply codecs.
  util::ByteWriter list;
  list.varint(2);
  njs::JobSummary{7, "job", ajo::ActionStatus::kRunning, 5}.encode(list);
  njs::JobSummary{8, "", ajo::ActionStatus::kPending, 6}.encode(list);
  add("list reply", list.take(), reading([](util::ByteReader& r) {
        return client::wire::ListCodec::decode(r);
      }));
  util::ByteWriter storages;
  storages.varint(1);
  njs::StorageInfo{7, "job7", 10, 100, 2, true, false, 5}.encode(storages);
  add("storage list reply", storages.take(), reading([](util::ByteReader& r) {
        return client::wire::StorageListCodec::decode(r);
      }));
  util::ByteWriter names;
  names.strings({"a.dat", "g1/b.dat"});
  add("storage files reply", names.take(), reading([](util::ByteReader& r) {
        return client::wire::StorageFilesCodec::decode(r);
      }));
  util::ByteWriter pages;
  pages.varint(1);
  pages.blob(page.encode());
  add("resource pages reply", pages.take(), reading([](util::ByteReader& r) {
        return client::wire::ResourcePagesCodec::decode(r);
      }));
  add("session grant reply",
      encoded(gateway::SessionGrant{util::Bytes(16, 5), 1800, "ucjane"}),
      reading([](util::ByteReader& r) {
        return client::wire::SessionOpenCodec::decode(r);
      }));
  add("journal inspect reply", encoded(njs::JournalInfo{true, 12, 1, 2, 3}),
      reading([](util::ByteReader& r) { return njs::JournalInfo::decode(r); }));
  return cases;
}

TEST(WireFuzz, EveryTruncationAndForgedCountReachesEveryDecoder) {
  testing::QuietLog quiet;
  for (const WireCase& c : wire_cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_FALSE(c.valid.empty());
    EXPECT_NO_THROW(c.decode(c.valid));
    testing::for_each_cut_and_count(c.valid, c.decode, c.window);
  }
}

TEST_P(DecoderFuzz, FlipsAndJunkReachEveryWireDecoder) {
  testing::QuietLog quiet;
  util::Rng rng(GetParam() ^ 0x7777);
  for (const WireCase& c : wire_cases()) {
    SCOPED_TRACE(c.name);
    for (int i = 0; i < c.flips; ++i)
      c.decode(testing::flip_bytes(c.valid, rng));
    for (int i = 0; i < 20; ++i) c.decode(rng.bytes(1 + rng.below(300)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace unicore
