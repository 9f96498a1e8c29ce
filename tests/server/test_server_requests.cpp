// Server request handling at the wire level: a hand-rolled secure
// channel speaks raw envelopes to the gateway and checks the replies —
// including malformed and unauthorized traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "ajo/codec.h"
#include "common/test_env.h"
#include "common/wire_fuzz.h"

namespace unicore::server {
namespace {

using testing::SingleSite;

struct RawClient {
  SingleSite& site;
  std::shared_ptr<net::SecureChannel> channel;
  std::vector<util::Bytes> replies;

  explicit RawClient(SingleSite& s, const crypto::Credential& credential)
      : site(s) {
    auto endpoint =
        s.grid.network().connect("raw.example.de", s.address()).value();
    net::SecureChannel::Config config;
    config.credential = credential;
    config.trust = &s.client_trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    channel = net::SecureChannel::as_client(
        s.grid.engine(), s.grid.rng(), std::move(endpoint), config,
        [](util::Status) {});
    s.grid.engine().run();
    channel->set_receiver(
        [this](util::Bytes&& wire) { replies.push_back(std::move(wire)); });
  }

  /// Sends raw bytes and drains the engine.
  void send(util::Bytes wire) {
    channel->send(std::move(wire));
    site.grid.engine().run();
  }

  /// Parses the last reply; returns (ok flag, remaining payload reader
  /// consumed as error when !ok).
  std::pair<bool, util::Error> last_reply_status() {
    EXPECT_FALSE(replies.empty());
    util::ByteReader r(replies.back());
    EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kReply);
    (void)r.u64();
    bool ok = r.u8() != 0;
    util::Error error;
    if (!ok) error = decode_error(r);
    return {ok, error};
  }
};

TEST(ServerRequests, MalformedRequestIsDroppedNotFatal) {
  SingleSite site(81);
  RawClient raw(site, site.user);
  raw.send(util::to_bytes("complete garbage"));
  EXPECT_TRUE(raw.replies.empty());  // dropped
  // The channel and the server survive: a valid request still works.
  raw.send(make_request(RequestKind::kResourcePages, 1, {}));
  ASSERT_EQ(raw.replies.size(), 1u);
  EXPECT_TRUE(raw.last_reply_status().first);
}

TEST(ServerRequests, UnknownBundleYieldsNotFound) {
  SingleSite site(82);
  RawClient raw(site, site.user);
  util::ByteWriter payload;
  payload.str("NoSuchApplet");
  raw.send(make_request(RequestKind::kGetBundle, 2, payload.bytes()));
  auto [ok, error] = raw.last_reply_status();
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.code, util::ErrorCode::kNotFound);
}

TEST(ServerRequests, QueryForUnknownTokenFails) {
  SingleSite site(83);
  RawClient raw(site, site.user);
  util::ByteWriter payload;
  payload.u64(424242);
  payload.u8(0);
  raw.send(make_request(RequestKind::kQuery, 3, payload.bytes()));
  auto [ok, error] = raw.last_reply_status();
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.code, util::ErrorCode::kNotFound);
}

TEST(ServerRequests, PeerOperationsRejectedForUserCertificates) {
  // DeliverFile / FetchFile / PeerControl demand a *server* certificate;
  // an ordinary user credential must be turned away.
  SingleSite site(84);
  RawClient raw(site, site.user);
  util::ByteWriter payload;
  payload.u64(1);
  payload.str("x.dat");
  uspace::FileBlob::from_string("x").encode(payload);
  raw.send(make_request(RequestKind::kDeliverFile, 4, payload.bytes()));
  auto [ok, error] = raw.last_reply_status();
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.code, util::ErrorCode::kPermissionDenied);
}

// A peer's whole-blob delivery whose content was damaged in flight is
// refused before anything is written: the decoder recomputes the file's
// identity instead of trusting the one declared beside the bytes.
TEST(ServerRequests, DeliverFileWithDamagedContentWritesNothing) {
  SingleSite site(87);
  ajo::AbstractJobObject job;
  job.set_name("receiver");
  job.vsite = SingleSite::kVsite;
  job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("sleeper");
  task->script = "sleep\n";
  task->set_resource_request({1, 600, 64, 0, 8});
  task->behavior.nominal_seconds = 1e6;
  job.add(std::move(task));
  gateway::AuthenticatedUser owner{site.user.certificate.subject,
                                   SingleSite::kLogin, {"project-a"}};
  auto token =
      site.server->njs().consign(job, owner, site.user.certificate).value();

  crypto::DistinguishedName subject;
  subject.country = "DE";
  subject.organization = "Test";
  subject.common_name = "njs.peer.example.de";
  crypto::Credential peer = site.grid.ca().issue_credential(
      subject, site.grid.rng(), net::kSimulationEpoch, 365 * 86'400LL,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  RawClient raw(site, peer);
  const uspace::FileBlob blob = uspace::FileBlob::from_string("peer payload");
  auto deliver = [&](const std::string& name, bool damaged,
                     std::uint64_t request_id) {
    util::ByteWriter payload;
    payload.u64(token);
    payload.str(name);
    blob.encode(payload);
    util::Bytes body = payload.take();
    if (damaged) body.back() ^= 0x01;  // the last content byte
    raw.send(make_request(RequestKind::kDeliverFile, request_id, body));
    return raw.last_reply_status();
  };

  auto [damaged_ok, error] = deliver("damaged.dat", true, 8);
  EXPECT_FALSE(damaged_ok);
  EXPECT_EQ(error.code, util::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(site.server->njs().fetch_file(token, "damaged.dat").ok());

  // The same delivery, undamaged, lands.
  EXPECT_TRUE(deliver("intact.dat", false, 9).first);
  auto intact = site.server->njs().fetch_file(token, "intact.dat");
  ASSERT_TRUE(intact.ok()) << intact.error().to_string();
  EXPECT_EQ(intact.value().checksum(), blob.checksum());
}

TEST(ServerRequests, ForwardConsignRejectedWithoutServerEndorsement) {
  SingleSite site(85);
  RawClient raw(site, site.user);

  // A user fabricates a "forwarded" consignment endorsing it with their
  // own (client-auth) certificate.
  njs::ForwardedConsignment consignment;
  consignment.job.set_name("forged");
  consignment.job.vsite = SingleSite::kVsite;
  consignment.job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->script = "true\n";
  consignment.job.add(std::move(task));
  consignment.user_certificate = site.user.certificate;
  consignment.consignor_certificate = site.user.certificate;
  consignment.signature = crypto::sign_message(
      site.user.key, njs::ForwardedConsignment::signing_input(
                         consignment.job, consignment.user_certificate));

  raw.send(make_request(RequestKind::kForwardConsign, 5,
                        encode_forwarded(consignment)));
  auto [ok, error] = raw.last_reply_status();
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.code, util::ErrorCode::kPermissionDenied);
}

TEST(ServerRequests, TruncatedPayloadGetsErrorNotCrash) {
  SingleSite site(86);
  RawClient raw(site, site.user);
  // kQuery with a payload too short for token + detail.
  util::ByteWriter payload;
  payload.u8(7);
  raw.send(make_request(RequestKind::kQuery, 6, payload.bytes()));
  // Either a malformed-request error reply or a silent drop is
  // acceptable; the server must stay alive.
  raw.send(make_request(RequestKind::kResourcePages, 7, {}));
  ASSERT_FALSE(raw.replies.empty());
  util::ByteReader r(raw.replies.back());
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kReply);
}

// The gateway decodes a consigned AJO before it can check the signature,
// so a forged element count reaches the decoder from any authenticated
// user. It must cost that user an error reply, not the Usite its loop.
TEST(ServerRequests, ConsignWithAForgedCountGetsAnErrorReply) {
  SingleSite site(88);
  RawClient raw(site, site.user);
  ajo::AbstractJobObject job;
  job.set_name("forged");
  job.vsite = SingleSite::kVsite;
  job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::UserTask>();
  task->executable = "a.out";
  task->arguments = {"forged-count-marker"};
  job.add(std::move(task));
  util::Bytes job_wire = ajo::encode_action(job);

  // The argument list is `count 1 | length | marker`: write 2^62 over
  // the count.
  const std::string marker = "forged-count-marker";
  auto at = std::search(job_wire.begin(), job_wire.end(), marker.begin(),
                        marker.end());
  ASSERT_NE(at, job_wire.end());
  auto count_at = at - 2;
  ASSERT_EQ(*count_at, 1);
  util::ByteWriter forged_count;
  forged_count.varint(std::uint64_t{1} << 62);
  count_at = job_wire.erase(count_at);
  job_wire.insert(count_at, forged_count.bytes().begin(),
                  forged_count.bytes().end());

  util::ByteWriter signed_ajo;
  signed_ajo.blob(job_wire);
  signed_ajo.blob(site.user.certificate.der());
  signed_ajo.u64(crypto::sign_message(site.user.key, job_wire).value);
  raw.send(make_request(RequestKind::kConsign, 8, signed_ajo.bytes()));
  ASSERT_EQ(raw.replies.size(), 1u);
  auto [ok, error] = raw.last_reply_status();
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.code, util::ErrorCode::kInvalidArgument);

  // The server keeps serving the same channel.
  raw.send(make_request(RequestKind::kResourcePages, 9, {}));
  ASSERT_EQ(raw.replies.size(), 2u);
  EXPECT_TRUE(raw.last_reply_status().first);
}

// Every request a user's channel may carry, in both envelopes, mutated
// on the wire: truncated at every byte, a forged count over every
// varint, random flips. Each message is answered or dropped, and the
// server keeps serving.
TEST(ServerRequests, MutatedRequestsNeverStopTheServer) {
  testing::QuietLog quiet;
  SingleSite site(89);
  RawClient raw(site, site.user);
  auto reply_body = [&raw] {
    util::ByteReader r(raw.replies.back());
    r.skip(10);  // type, request id, ok
    return r;
  };

  // A job and a session for the requests to name.
  ajo::AbstractJobObject job;
  job.set_name("target");
  job.vsite = SingleSite::kVsite;
  job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("step");
  task->script = "true\n";
  task->arguments = {"-v"};
  task->set_resource_request({1, 600, 64, 0, 8});
  job.add(std::move(task));
  const util::Bytes signed_job = ajo::sign_ajo(job, site.user).encode();
  raw.send(make_request(RequestKind::kConsign, 1, signed_job));
  ASSERT_TRUE(raw.last_reply_status().first);
  const ajo::JobToken token = reply_body().u64();
  util::ByteWriter ttl;
  ttl.i64(0);
  raw.send(make_request(RequestKind::kSessionOpen, 2, ttl.bytes()));
  ASSERT_TRUE(raw.last_reply_status().first);
  util::ByteReader grant_reader = reply_body();
  const util::Bytes bearer = gateway::SessionGrant::decode(grant_reader).token;

  util::ByteWriter by_token;
  by_token.u64(token);
  util::ByteWriter query = by_token;
  query.u8(0);
  util::ByteWriter output = by_token;
  output.str("stdout");
  util::ByteWriter hold = by_token;
  hold.u8(static_cast<std::uint8_t>(ajo::ControlService::Command::kHold));
  util::ByteWriter bundle;
  bundle.str("JPA");
  xfer::BundlePullOpenRequest pull;
  pull.role = xfer::Role::kClientPull;
  pull.token = token;
  pull.names = {"stdout", "stderr"};
  xfer::BundlePullChunkRequest pull_chunk;
  pull_chunk.role = xfer::Role::kClientPull;
  pull_chunk.transfer_id = 1;
  xfer::BundleCloseRequest close;
  close.role = xfer::Role::kClientPull;
  close.transfer_id = 1;
  njs::ForwardedConsignment forwarded;
  forwarded.job = job;
  forwarded.user_certificate = site.user.certificate;
  forwarded.consignor_certificate = site.user.certificate;

  const std::vector<std::pair<RequestKind, util::Bytes>> payloads{
      {RequestKind::kConsign, signed_job},
      {RequestKind::kQuery, query.bytes()},
      {RequestKind::kList, {}},
      {RequestKind::kControl, hold.bytes()},
      {RequestKind::kFetchOutput, output.bytes()},
      {RequestKind::kResourcePages, {}},
      {RequestKind::kGetBundle, bundle.bytes()},
      {RequestKind::kForwardConsign, encode_forwarded(forwarded)},
      {RequestKind::kMonitorTrace, by_token.bytes()},
      {RequestKind::kJournalInspect, {}},
      {RequestKind::kSessionOpen, ttl.bytes()},
      {RequestKind::kStorageList, {}},
      {RequestKind::kStorageFiles, by_token.bytes()},
      {RequestKind::kXferBundleOpen, pull.encode()},
      {RequestKind::kXferChunk, pull_chunk.encode()},
      {RequestKind::kXferBundleClose, close.encode()},
  };
  std::vector<util::Bytes> requests;
  std::uint64_t id = 10;
  for (const auto& [kind, payload] : payloads) {
    requests.push_back(make_request(kind, ++id, payload));
    requests.push_back(make_token_request(kind, ++id, bearer, payload));
  }
  requests.push_back(
      make_token_request(RequestKind::kConsign, ++id, bearer,
                         ajo::encode_action(job)));
  requests.push_back(
      make_token_request(RequestKind::kSessionRefresh, ++id, bearer, {}));

  util::Rng rng(89);
  for (const util::Bytes& request : requests) {
    testing::for_each_cut_and_count(
        request, [&raw](const util::Bytes& m) { raw.send(m); });
    for (int i = 0; i < 20; ++i) raw.send(testing::flip_bytes(request, rng));
  }

  raw.send(make_request(RequestKind::kResourcePages, 9, {}));
  ASSERT_FALSE(raw.replies.empty());
  util::ByteReader last(raw.replies.back());
  EXPECT_EQ(static_cast<MessageType>(last.u8()), MessageType::kReply);
  EXPECT_EQ(last.u64(), 9u);
  EXPECT_EQ(last.u8(), 1);
}

// Every truncation of a valid request that would act on a job, a
// session or a transfer: a cut before the request id is dropped, and
// every later cut gets one kInvalidArgument reply and changes nothing
// the request names. A hold cut before its command byte is the case to
// watch: the zero value of the missing byte is Command::kAbort.
TEST(ServerRequests, MalformedRequestsLeaveNoTrace) {
  testing::QuietLog quiet;
  // NJS replica 0 is down and unadopted, so the job lives on replica 1
  // and a routing field read as zero names a dead partition: a cut open
  // must not be answered kUnavailable.
  SingleSite site(90, /*split=*/false, /*njs_replicas=*/2);
  site.server->njs_cluster().set_auto_handoff(false);
  site.server->njs_cluster().kill(0);
  RawClient raw(site, site.user);
  auto reply_body = [&raw] {
    util::ByteReader r(raw.replies.back());
    r.skip(10);  // type, request id, ok
    return r;
  };
  // Runs each exchange for 100 ms of virtual time, not to quiescence:
  // the job must keep running and the push stay inside its idle timeout.
  sim::Engine& engine = site.grid.engine();
  auto send = [&](util::Bytes wire) {
    raw.channel->send(std::move(wire));
    engine.run_until(engine.now() + sim::msec(100));
  };

  // A job that runs for a long time, to hold or abort.
  ajo::AbstractJobObject job;
  job.set_name("target");
  job.vsite = SingleSite::kVsite;
  job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("step");
  task->script = "sleep\n";
  task->set_resource_request({1, 600, 64, 0, 8});
  task->behavior.nominal_seconds = 1e6;
  job.add(std::move(task));
  send(make_request(RequestKind::kConsign, 1,
                    ajo::sign_ajo(job, site.user).encode()));
  ASSERT_TRUE(raw.last_reply_status().first);
  const ajo::JobToken token = reply_body().u64();

  // A client push into the job, left open: of its two small synthetic
  // files the first is delivered, the second still missing.
  const uspace::FileBlob first = uspace::FileBlob::synthetic(40, 1);
  const uspace::FileBlob second = uspace::FileBlob::synthetic(40, 2);
  xfer::BundleOpenRequest open;
  open.role = xfer::Role::kClientPush;
  open.token = token;
  open.files = {{"first.bin", first.size(), first.checksum(), true, {}},
                {"second.bin", second.size(), second.checksum(), true, {}}};
  open.key = xfer::make_bundle_key("ws.example.de", token, open.files);
  send(make_request(RequestKind::kXferBundleOpen, 2, open.encode()));
  ASSERT_TRUE(raw.last_reply_status().first);
  util::ByteReader open_reply = reply_body();
  const xfer::BundleOpenReply opened = xfer::BundleOpenReply::decode(open_reply);
  ASSERT_TRUE(open_reply.finish().ok());
  auto chunk_of = [&](std::uint32_t file, const uspace::FileBlob& blob) {
    xfer::BundleChunkRequest request;
    request.role = xfer::Role::kClientPush;
    request.transfer_id = opened.transfer_id;
    request.file_index = file;
    request.chunk = xfer::make_chunk(blob, 0);
    return request.encode();
  };
  send(make_request(RequestKind::kXferChunk, 3, chunk_of(0, first)));
  ASSERT_TRUE(raw.last_reply_status().first);

  util::ByteWriter hold;
  hold.u64(token);
  hold.u8(static_cast<std::uint8_t>(ajo::ControlService::Command::kHold));
  util::ByteWriter by_token;
  by_token.u64(token);
  util::ByteWriter ttl;
  ttl.i64(0);
  xfer::BundleCloseRequest close;
  close.role = xfer::Role::kClientPush;
  close.transfer_id = opened.transfer_id;
  close.key = open.key;
  // A bearer session, for a request in the portal's token envelope.
  send(make_request(RequestKind::kSessionOpen, 4, ttl.bytes()));
  ASSERT_TRUE(raw.last_reply_status().first);
  util::ByteReader grant = reply_body();
  const util::Bytes bearer = gateway::SessionGrant::decode(grant).token;
  ASSERT_TRUE(grant.ok());
  util::ByteWriter bearer_field;
  bearer_field.blob(bearer);

  // Each request, and how many bytes after its id the gateway reads
  // itself: a cut there is answered at the gateway, a later one is
  // forwarded to the NJS.
  struct Case {
    util::Bytes wire;
    std::size_t gateway_reads;
  };
  const std::vector<Case> cases{
      {make_request(RequestKind::kControl, 11, hold.bytes()), 0},
      {make_request(RequestKind::kStorageReap, 12, by_token.bytes()), 0},
      {make_token_request(RequestKind::kStorageReap, 13, bearer,
                          by_token.bytes()),
       bearer_field.size()},
      {make_request(RequestKind::kSessionOpen, 14, ttl.bytes()), 8},
      {make_request(RequestKind::kXferBundleOpen, 15, open.encode()), 1},
      {make_request(RequestKind::kXferChunk, 16, chunk_of(1, second)), 1},
      {make_request(RequestKind::kXferBundleClose, 17, close.encode()), 1},
  };

  njs::Njs& njs = site.server->njs_cluster().replica(1);
  xfer::Service& service = site.server->xfer_service_replica(1);
  // Requests the gateway forwarded to the NJS and saw answered.
  auto forwarded = [&site] {
    return site.server->metrics()->snapshot().total(
        "unicore_gateway_request_latency_seconds");
  };
  auto state = [&] {
    auto outcome = njs.query(token, ajo::QueryService::Detail::kTasks);
    auto files = njs.storage_files(token);
    EXPECT_TRUE(outcome.ok() && files.ok());
    util::ByteWriter w;  // the job's whole outcome tree
    if (outcome.ok()) outcome.value().encode(w);
    return std::make_tuple(w.take(), files.value_or({}),
                           site.server->session_broker().active(),
                           site.server->chunk_store()->stats().total_refs,
                           service.inbound_open(), service.chunks_applied(),
                           service.files_delivered());
  };
  const auto before = state();
  EXPECT_EQ(std::get<1>(before), std::vector<std::string>{"first.bin"});
  EXPECT_EQ(std::get<4>(before), 1u);  // the push is open

  std::size_t answered = 0;
  for (const auto& [request, gateway_reads] : cases) {
    const auto kind = static_cast<RequestKind>(request[1]);
    for (std::size_t cut = 0; cut < request.size(); ++cut) {
      SCOPED_TRACE(std::string(request_kind_name(kind)) + " cut at " +
                   std::to_string(cut));
      const std::size_t replies = raw.replies.size();
      const double forwards = forwarded();
      send(util::Bytes(request.begin(),
                       request.begin() + static_cast<std::ptrdiff_t>(cut)));
      EXPECT_EQ(forwarded(), forwards + (cut >= 10 + gateway_reads ? 1 : 0));
      if (cut < 10) {  // type, kind and request id
        EXPECT_EQ(raw.replies.size(), replies);
        continue;
      }
      ASSERT_EQ(raw.replies.size(), replies + 1);
      ++answered;
      auto [ok, error] = raw.last_reply_status();
      EXPECT_FALSE(ok);
      EXPECT_EQ(error.code, util::ErrorCode::kInvalidArgument)
          << error.message;
    }
    EXPECT_TRUE(state() == before);
  }
  EXPECT_GT(answered, 300u);
}

// ---- malformed replies from a raw server -----------------------------------

/// A secure-channel server that answers every request with a truncated
/// error reply: {kReply, request id, ok = 0} and no error body — 10 bytes
/// that decode_error cannot read. With `ok` = 1 it sends the same 10 bytes
/// as an ok reply with an empty payload; with no `ok` it answers nothing.
struct MalformedErrorServer {
  crypto::TrustStore trust;
  crypto::Credential credential;
  std::vector<std::shared_ptr<net::SecureChannel>> channels;
  std::optional<std::uint8_t> ok;
  std::size_t requests = 0;
  std::size_t replies = 0;

  MalformedErrorServer(SingleSite& site, net::Address address,
                       std::optional<std::uint8_t> reply_ok = 0)
      : trust(site.grid.make_trust_store()), ok(reply_ok) {
    crypto::DistinguishedName subject;
    subject.country = "DE";
    subject.organization = "Test";
    subject.common_name = address.host;
    credential = site.grid.ca().issue_credential(
        subject, site.grid.rng(), net::kSimulationEpoch, 365 * 86'400LL,
        crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
    (void)site.grid.network().listen(
        address, [this, &site](std::shared_ptr<net::Endpoint> endpoint) {
          net::SecureChannel::Config config;
          config.credential = credential;
          config.trust = &trust;
          auto channel = net::SecureChannel::as_server(
              site.grid.engine(), site.grid.rng(), std::move(endpoint),
              config, [](util::Status) {});
          channel->set_receiver(
              [this, weak = std::weak_ptr(channel)](util::Bytes&& wire) {
                auto self = weak.lock();
                if (!self) return;
                ++requests;
                if (!ok) return;
                util::ByteReader request(wire);
                (void)request.u8();  // kRequest
                (void)request.u8();  // kind
                util::ByteWriter reply;
                reply.u8(static_cast<std::uint8_t>(MessageType::kReply));
                reply.u64(request.u64());
                reply.u8(*ok);  // and no error body or payload follows
                EXPECT_EQ(reply.bytes().size(), 10u);
                ++replies;
                self->send(reply.take());
              });
          channels.push_back(std::move(channel));
        });
  }
};

TEST(ServerRequests, MalformedErrorReplyEndsTheClientRequestByItsTimeout) {
  SingleSite site(87);
  MalformedErrorServer fake(site, {"fake.example.de", 4433});
  client::UnicoreClient::Config config;
  config.host = "ws.example.de";
  config.user = site.user;
  config.trust = &site.client_trust;
  config.request_timeout = sim::sec(5);
  client::UnicoreClient client(site.grid.engine(), site.grid.network(),
                               site.grid.rng(), config);
  util::Status connected = util::make_error(util::ErrorCode::kInternal, "");
  client.connect({"fake.example.de", 4433},
                 [&](util::Status s) { connected = s; });
  site.grid.engine().run();
  ASSERT_TRUE(connected.ok()) << connected.to_string();

  int calls = 0;
  std::optional<util::ErrorCode> code;
  sim::Time fired_at = 0;
  const sim::Time sent_at = site.grid.engine().now();
  client.list([&](util::Result<std::vector<njs::JobSummary>> reply) {
    ++calls;
    if (!reply.ok()) code = reply.error().code;
    fired_at = site.grid.engine().now();
  });
  site.grid.engine().run();
  EXPECT_EQ(fake.replies, 1u);
  // The reply that cannot be decoded is dropped; the request ends by its
  // own timeout, exactly once.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(code, util::ErrorCode::kTimeout);
  EXPECT_EQ(fired_at - sent_at, config.request_timeout);
}

TEST(ServerRequests, MalformedErrorReplyEndsThePeerRequestWithAnError) {
  SingleSite site(88);
  MalformedErrorServer fake(site, {"fake.example.de", 4433});
  site.server->add_peer("Fake", {"fake.example.de", 4433});
  site.server->set_peer_request_timeout(sim::sec(5));

  int calls = 0;
  util::Status result = util::Status::ok_status();
  njs::RemoteJobHandle target;
  target.usite = "Fake";
  target.token = 7;
  site.server->control(target, ajo::ControlService::Command::kHold,
                       [&](util::Status s) {
                         ++calls;
                         result = s;
                       });
  site.grid.engine().run();
  EXPECT_GE(fake.replies, 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.ok());
}

TEST(ServerRequests, EmptyOkReplyToAForwardedConsignFailsItsAcceptance) {
  // {kReply, id, ok = 1} with no job token: the consign must fail, not
  // leave the sub-job waiting for an acceptance that never comes.
  SingleSite site(89);
  MalformedErrorServer fake(site, {"fake.example.de", 4433}, 1);
  site.server->add_peer("Fake", {"fake.example.de", 4433});

  njs::ForwardedConsignment consignment;
  consignment.job.set_name("sub-job");
  consignment.job.vsite = SingleSite::kVsite;
  consignment.job.user = site.user.certificate.subject;
  consignment.user_certificate = site.user.certificate;

  int accepted_calls = 0;
  std::optional<util::ErrorCode> code;
  site.server->consign(
      "Fake", consignment,
      [&](util::Result<njs::RemoteJobHandle> handle) {
        ++accepted_calls;
        if (!handle.ok()) code = handle.error().code;
      },
      [](ajo::Outcome) {});
  site.grid.engine().run();
  EXPECT_EQ(fake.replies, 1u);
  EXPECT_EQ(accepted_calls, 1);
  EXPECT_EQ(code, util::ErrorCode::kInvalidArgument);
}

TEST(ServerRequests, MalformedErrorReplyEndsTheRailsCallByItsTimeout) {
  SingleSite site(90);
  MalformedErrorServer fake(site, {"fake.example.de", 4433});
  XferRails::Config config;
  config.local_host = "rails.example.de";
  config.remote = {"fake.example.de", 4433};
  config.streams = 2;
  config.credential = site.user;
  config.trust = &site.client_trust;
  config.request_timeout = sim::sec(5);
  auto rails = XferRails::create(site.grid.engine(), site.grid.network(),
                                 site.grid.rng(), config);

  int calls = 0;
  std::optional<util::ErrorCode> code;
  sim::Time fired_at = 0;
  const sim::Time sent_at = site.grid.engine().now();
  rails->call(1, xfer::Op::kChunk, {}, [&](util::Result<util::Bytes> reply) {
    ++calls;
    if (!reply.ok()) code = reply.error().code;
    fired_at = site.grid.engine().now();
  });
  site.grid.engine().run();
  EXPECT_EQ(fake.replies, 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(code, util::ErrorCode::kTimeout);
  EXPECT_EQ(fired_at - sent_at, config.request_timeout);
}

// The server resolves each kind's series on that kind's first request
// and records through the handle after that: different counts per kind
// show that no handle points at another kind's series.
TEST(ServerRequests, EachRequestKindRecordsIntoItsOwnSeries) {
  SingleSite site(95);
  RawClient raw(site, site.user);
  const std::vector<std::pair<RequestKind, int>> kinds{
      {RequestKind::kResourcePages, 2},
      {RequestKind::kList, 3},
      {RequestKind::kStorageList, 4}};
  const std::string usite = site.server->config().name;
  auto series = [&](RequestKind kind) -> obs::Labels {
    return {{"kind", request_kind_name(kind)}, {"usite", usite}};
  };
  const obs::MetricsSnapshot before = site.server->metrics()->snapshot();
  std::uint64_t request_id = 1;
  for (const auto& [kind, n] : kinds)
    for (int i = 0; i < n; ++i) {
      raw.send(make_request(kind, request_id++, {}));
      ASSERT_TRUE(raw.last_reply_status().first) << request_kind_name(kind);
    }
  const obs::MetricsSnapshot after = site.server->metrics()->snapshot();
  for (const auto& [kind, n] : kinds) {
    SCOPED_TRACE(request_kind_name(kind));
    EXPECT_EQ(before.find("unicore_server_requests_total", series(kind)),
              nullptr);
    const obs::MetricPoint* requests =
        after.find("unicore_server_requests_total", series(kind));
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, n);
    const obs::MetricPoint* latency =
        after.find("unicore_gateway_request_latency_seconds", series(kind));
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, static_cast<std::uint64_t>(n));
  }
}

// set_metrics drops every handle the server side resolved, so nothing it
// records afterwards reaches the old registry. (The network keeps its
// own registry: unicore_net_* and unicore_channel_* are not the
// server's.)
TEST(ServerRequests, SetMetricsSendsEveryLaterRecordToTheNewRegistry) {
  SingleSite site(96);
  RawClient raw(site, site.user);
  util::ByteWriter ttl;
  ttl.i64(0);
  // Resolve the request, latency, auth-cache and session handles first.
  raw.send(make_request(RequestKind::kResourcePages, 1, {}));
  raw.send(make_request(RequestKind::kSessionOpen, 2, ttl.bytes()));
  ASSERT_TRUE(raw.last_reply_status().first);

  std::shared_ptr<obs::MetricsRegistry> old_registry = site.server->metrics();
  auto server_side = [](const obs::MetricsSnapshot& snapshot) {
    std::vector<std::tuple<std::string, obs::Labels, double, std::uint64_t>>
        points;
    for (const obs::MetricPoint& point : snapshot.points)
      if (point.name.rfind("unicore_server_", 0) == 0 ||
          point.name.rfind("unicore_gateway_", 0) == 0)
        points.emplace_back(point.name, point.labels, point.value,
                            point.count);
    return points;
  };
  const auto old_before = server_side(old_registry->snapshot());
  auto fresh = std::make_shared<obs::MetricsRegistry>();
  site.server->set_metrics(fresh);

  raw.send(make_request(RequestKind::kResourcePages, 3, {}));
  raw.send(make_request(RequestKind::kSessionOpen, 4, ttl.bytes()));
  ASSERT_TRUE(raw.last_reply_status().first);

  EXPECT_EQ(server_side(old_registry->snapshot()), old_before);
  const obs::MetricsSnapshot now = fresh->snapshot();
  const obs::Labels pages{{"kind", "resource-pages"},
                          {"usite", site.server->config().name}};
  const obs::MetricPoint* requests =
      now.find("unicore_server_requests_total", pages);
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, 1.0);
  const obs::MetricPoint* latency =
      now.find("unicore_gateway_request_latency_seconds", pages);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  // The session open authenticates the channel's certificate (resource
  // pages are anonymous): one auth-cache lookup, one session counted.
  EXPECT_EQ(now.total("unicore_gateway_auth_cache_total"), 1.0);
  EXPECT_EQ(now.total("unicore_gateway_sessions_total"), 1.0);
}

TEST(ServerRequests, PeerTimeoutCounterCountsEveryAttemptThatHitItsDeadline) {
  SingleSite site(91);
  MalformedErrorServer silent(site, {"silent.example.de", 4433},
                              std::nullopt);
  site.server->add_peer("Silent", {"silent.example.de", 4433});
  site.server->set_peer_request_timeout(sim::sec(5));
  obs::Counter& timeouts = site.server->metrics()->counter(
      "unicore_peer_request_timeouts_total",
      {{"usite", site.server->config().name}});
  const double before = timeouts.value();

  int calls = 0;
  util::Status result = util::Status::ok_status();
  njs::RemoteJobHandle target;
  target.usite = "Silent";
  target.token = 7;
  site.server->control(target, ajo::ControlService::Command::kHold,
                       [&](util::Status s) {
                         ++calls;
                         result = s;
                       });
  site.grid.engine().run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(silent.replies, 0u);
  // Three attempts go unanswered and open the circuit breaker, which
  // refuses the fourth before it is sent: three deadlines, three counts.
  EXPECT_EQ(silent.requests, 3u);
  EXPECT_EQ(timeouts.value() - before, static_cast<double>(silent.requests));
}

}  // namespace
}  // namespace unicore::server
