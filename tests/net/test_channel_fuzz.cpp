// Robustness of the secure channel's decoders: a relay between a real
// client and a real server mutates one message of the exchange — 1-3
// byte flips, a truncation or an appended tail — and both ends must
// either fail, or establish and deliver exactly what the other sent.
// Session tickets get the same mutations at SessionTicketManager::redeem.
#include <gtest/gtest.h>

#include "common/wire_fuzz.h"
#include "net/secure_channel.h"
#include "net/session.h"
#include "util/rng.h"

namespace unicore::net {
namespace {

constexpr std::int64_t kYear = 365 * 86'400LL;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Test";
  out.common_name = cn;
  return out;
}

/// Applies one mutation drawn from `rng`: 1-3 byte flips, a truncation
/// to a shorter length, or 1-16 appended random bytes.
void mutate(util::Rng& rng, util::Bytes& wire) {
  switch (rng.below(3)) {
    case 0:
      if (!wire.empty()) wire = testing::flip_bytes(wire, rng);
      break;
    case 1:
      if (!wire.empty()) wire.resize(rng.below(wire.size()));
      break;
    default:
      util::append(wire, rng.bytes(1 + rng.below(16)));
      break;
  }
}


struct Side {
  std::shared_ptr<SecureChannel> channel;
  bool established = false;
  std::vector<util::Bytes> sent;
  std::vector<util::Bytes> received;
};

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  sim::Engine engine;
  util::Rng rng{GetParam()};
  Network network{engine, util::Rng(GetParam() + 1)};
  crypto::CertificateAuthority ca{dn("CA"), rng, kSimulationEpoch, 10 * kYear};
  crypto::TrustStore trust;
  crypto::Credential server_cred = ca.issue_credential(
      dn("server"), rng, kSimulationEpoch, kYear,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential client_cred = ca.issue_credential(
      dn("client"), rng, kSimulationEpoch, kYear,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  SessionTicketManager tickets{rng};
  SessionCache cache;

  Side server;
  Side client;
  // Relay state: which direction and which message of it to mutate.
  bool mutate_to_server = true;
  std::size_t target = 0;
  std::size_t seen_to_server = 0;
  std::size_t seen_to_client = 0;
  util::Rng mutation_rng{GetParam() ^ 0x5eed};
  /// Just above the 256 KiB fragment limit: the client's frame holds
  /// complete and fragment records, the server's complete ones only.
  const util::Bytes large = util::Rng(GetParam() + 2).bytes(256 * 1024 + 100);
  bool relayed = false;  // only the mutated connection sends data
  std::shared_ptr<Endpoint> relay_from_client;
  std::shared_ptr<Endpoint> relay_to_server;

  void SetUp() override {
    trust.add_root(ca.certificate());
    tickets.attach_trust(&trust);
    (void)network.listen({"server", 443}, [this](std::shared_ptr<Endpoint> e) {
      SecureChannel::Config config;
      config.credential = server_cred;
      config.trust = &trust;
      config.required_peer_usage = crypto::kUsageClientAuth;
      config.ticket_manager = &tickets;
      start(server, SecureChannel::as_server(
                        engine, rng, std::move(e), config,
                        [this](util::Status s) { established(server, s); }));
    });
    (void)network.listen({"relay", 443}, [this](std::shared_ptr<Endpoint> e) {
      unhook_relay();  // the previous run's connection stays silent
      relay_from_client = std::move(e);
      relay_to_server = network.connect("relay", {"server", 443}).value();
      relay_from_client->set_receiver([this](util::Bytes&& wire) {
        if (mutate_to_server && seen_to_server++ == target)
          mutate(mutation_rng, wire);
        relay_to_server->send(std::move(wire));
      });
      relay_to_server->set_receiver([this](util::Bytes&& wire) {
        if (!mutate_to_server && seen_to_client++ == target)
          mutate(mutation_rng, wire);
        relay_from_client->send(std::move(wire));
      });
    });
  }

  void TearDown() override { unhook_relay(); }

  void unhook_relay() {
    for (const auto& e : {relay_from_client, relay_to_server})
      if (e) e->set_receiver(nullptr);
  }

  void start(Side& side, std::shared_ptr<SecureChannel> channel) {
    side = Side{};
    side.channel = std::move(channel);
    side.channel->set_receiver([&side](util::Bytes&& m) {
      side.received.push_back(std::move(m));
    });
  }

  /// Once established, each side sends its messages in one instant, so
  /// they travel as one kRecordBatch frame.
  void established(Side& side, util::Status status) {
    if (!status.ok()) return;
    side.established = true;
    if (!relayed) return;
    const bool is_client = &side == &client;
    side.sent.push_back(util::to_bytes(is_client ? "client-first" : "server"));
    if (is_client) {
      side.sent.push_back(large);
      side.sent.push_back(util::to_bytes("client-last"));
    }
    for (const util::Bytes& m : side.sent) side.channel->send(m);
  }

  void connect(const std::string& host) {
    SecureChannel::Config config;
    config.credential = client_cred;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    config.session_cache = &cache;
    config.session_key = "fuzz";  // direct and relayed runs share tickets
    auto endpoint = network.connect("client", {host, 443});
    ASSERT_TRUE(endpoint.ok());
    start(client, SecureChannel::as_client(
                      engine, rng, std::move(endpoint.value()), config,
                      [this](util::Status s) { established(client, s); }));
  }

  /// `receiver` delivered a prefix of what `sender` sent (nothing when
  /// either never established), and all of it while both are still up —
  /// never a plaintext that was not sent.
  static void expect_delivery(const Side& receiver, const Side& sender) {
    ASSERT_LE(receiver.received.size(), sender.sent.size());
    for (std::size_t i = 0; i < receiver.received.size(); ++i)
      EXPECT_EQ(receiver.received[i], sender.sent[i]) << "message " << i;
    if (!receiver.channel->failed() && !sender.channel->failed()) {
      EXPECT_EQ(receiver.received.size(), sender.sent.size());
    }
  }
};

TEST_P(ChannelFuzz, MutatedMessageFailsOrDeliversExactly) {
  std::size_t clean = 0;
  std::size_t failed = 0;
  for (int run = 0; run < 12; ++run) {
    // Half the runs resume from a ticket warmed by a direct, clean
    // connection; the rest make a full handshake.
    cache.clear();
    relayed = false;
    if (run % 2 == 1) {
      connect("server");
      engine.run();
      ASSERT_TRUE(client.established);
    }
    relayed = true;
    mutate_to_server = rng.below(2) == 0;
    target = rng.below(3);  // a hello, the second flight, or a batch
    seen_to_server = seen_to_client = 0;
    connect("relay");
    EXPECT_NO_THROW(engine.run());

    if (server.established) {
      EXPECT_EQ(server.channel->peer_certificate(), client_cred.certificate);
    }
    if (client.established) {
      EXPECT_EQ(client.channel->peer_certificate(), server_cred.certificate);
    }
    expect_delivery(server, client);
    expect_delivery(client, server);
    if (client.channel->failed() || server.channel == nullptr ||
        server.channel->failed())
      ++failed;
    else
      ++clean;
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(failed, 0u);
}

TEST_P(ChannelFuzz, MutatedTicketsAreRefused) {
  ResumptionState state{rng.bytes(32), client_cred.certificate};
  const std::int64_t now = kSimulationEpoch + 100;
  const util::Bytes ticket = tickets.issue(state, now);
  ASSERT_TRUE(tickets.redeem(ticket, now).ok());
  for (int i = 0; i < 200; ++i) {
    util::Bytes mutated = ticket;
    mutate(mutation_rng, mutated);
    util::Result<ResumptionState> redeemed =
        util::make_error(util::ErrorCode::kInternal, "unset");
    EXPECT_NO_THROW(redeemed = tickets.redeem(mutated, now));
    EXPECT_FALSE(redeemed.ok()) << "mutation " << i << " was accepted";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace unicore::net
