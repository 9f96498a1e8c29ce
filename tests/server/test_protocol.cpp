// Wire-format tests for the high-level protocol envelopes (§5.3) and
// the server payload codecs.
#include "server/protocol.h"

#include <gtest/gtest.h>

#include "ajo/codec.h"
#include "ajo/tasks.h"

namespace unicore::server {
namespace {

TEST(Protocol, RequestEnvelope) {
  util::Bytes wire =
      make_request(RequestKind::kQuery, 42, util::to_bytes("payload"));
  util::ByteReader r(wire);
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kRequest);
  EXPECT_EQ(static_cast<RequestKind>(r.u8()), RequestKind::kQuery);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(util::to_string(r.raw(r.remaining())), "payload");
}

TEST(Protocol, OkReplyEnvelope) {
  util::Bytes wire = make_ok_reply(7, util::to_bytes("result"));
  util::ByteReader r(wire);
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kReply);
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(util::to_string(r.raw(r.remaining())), "result");
}

TEST(Protocol, ErrorReplyEnvelopeRoundTripsTheError) {
  util::Error error =
      util::make_error(util::ErrorCode::kPermissionDenied, "nope");
  util::Bytes wire = make_error_reply(9, error);
  util::ByteReader r(wire);
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kReply);
  EXPECT_EQ(r.u64(), 9u);
  EXPECT_EQ(r.u8(), 0);
  util::Error back = decode_error(r);
  EXPECT_EQ(back.code, util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(back.message, "nope");
}

TEST(Protocol, NotificationCarriesOutcome) {
  ajo::Outcome outcome;
  outcome.action = 3;
  outcome.type = ajo::ActionType::kAbstractJobObject;
  outcome.status = ajo::ActionStatus::kSuccessful;
  outcome.name = "done job";
  util::Bytes wire = make_notification(55, outcome);
  util::ByteReader r(wire);
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kNotification);
  EXPECT_EQ(r.u64(), 55u);
  ajo::Outcome back = ajo::Outcome::decode(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, outcome);
}

TEST(Protocol, UserCodecRoundTrip) {
  gateway::AuthenticatedUser user;
  user.dn.country = "DE";
  user.dn.organization = "Org";
  user.dn.common_name = "Jane";
  user.login = "ucjane";
  user.account_groups = {"a", "b", "c"};
  util::ByteWriter w;
  user.encode(w);
  util::ByteReader r(w.bytes());
  gateway::AuthenticatedUser back = gateway::AuthenticatedUser::decode(r);
  EXPECT_EQ(back.dn, user.dn);
  EXPECT_EQ(back.login, "ucjane");
  EXPECT_EQ(back.account_groups, user.account_groups);
  EXPECT_TRUE(r.done());
}

TEST(Protocol, ForwardedConsignmentRoundTrip) {
  util::Rng rng(3);
  crypto::CertificateAuthority ca({"DE", "CA", "", "Root", ""}, rng, 0,
                                  1'000'000);
  crypto::Credential user = ca.issue_credential(
      {"DE", "O", "", "Jane", ""}, rng, 0, 100'000,
      crypto::kUsageClientAuth);
  crypto::Credential server = ca.issue_credential(
      {"DE", "O", "", "njs", ""}, rng, 0, 100'000,
      crypto::kUsageServerAuth);

  njs::ForwardedConsignment consignment;
  consignment.job.set_name("group");
  consignment.job.vsite = "V";
  consignment.job.user = user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->script = "true\n";
  consignment.job.add(std::move(task));
  consignment.user_certificate = user.certificate;
  consignment.consignor_certificate = server.certificate;
  consignment.signature = crypto::sign_message(
      server.key, njs::ForwardedConsignment::signing_input(
                      consignment.job, consignment.user_certificate));
  consignment.staged_files.emplace_back(
      "stage.dat", uspace::FileBlob::from_string("data"));
  consignment.staged_files.emplace_back(
      "big.bin", uspace::FileBlob::synthetic(4096, 9));

  util::Bytes wire = encode_forwarded(consignment);
  util::ByteReader r(wire);
  njs::ForwardedConsignment back = decode_forwarded(r);
  ASSERT_TRUE(r.ok()) << r.finish().to_string();
  EXPECT_EQ(ajo::encode_action(back.job),
            ajo::encode_action(consignment.job));
  EXPECT_EQ(back.user_certificate, user.certificate);
  EXPECT_EQ(back.consignor_certificate, server.certificate);
  EXPECT_EQ(back.signature, consignment.signature);
  ASSERT_EQ(back.staged_files.size(), 2u);
  EXPECT_EQ(back.staged_files[0].second,
            consignment.staged_files[0].second);
  EXPECT_EQ(back.staged_files[1].second,
            consignment.staged_files[1].second);
  // The signature still verifies after the round trip.
  EXPECT_TRUE(crypto::verify_message(
      server.key.pub,
      njs::ForwardedConsignment::signing_input(
          back.job, back.user_certificate),
      back.signature));
}

TEST(Protocol, RequestKindNamesDistinct) {
  std::set<std::string> names;
  for (int k = 1; k <= 11; ++k)
    names.insert(request_kind_name(static_cast<RequestKind>(k)));
  EXPECT_EQ(names.size(), 11u);
}

}  // namespace
}  // namespace unicore::server
