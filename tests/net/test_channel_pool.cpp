#include "net/channel_pool.h"

#include <gtest/gtest.h>

#include "net/session.h"

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

struct PoolFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{21};
  Network network{engine, util::Rng(22)};
  crypto::CertificateAuthority ca{dn("CA"), rng, kSimulationEpoch, 10 * kYear};
  crypto::TrustStore trust;
  crypto::Credential server_cred = ca.issue_credential(
      dn("server"), rng, kSimulationEpoch, kYear,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential client_cred = ca.issue_credential(
      dn("client"), rng, kSimulationEpoch, kYear,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  SessionTicketManager tickets{rng};
  SessionCache cache;

  // Server side: echo every message back on its channel.
  std::vector<std::shared_ptr<SecureChannel>> server_channels;

  void SetUp() override {
    trust.add_root(ca.certificate());
    tickets.attach_trust(&trust);
    (void)network.listen(
        {"server", 7700}, [this](std::shared_ptr<Endpoint> endpoint) {
          SecureChannel::Config config;
          config.credential = server_cred;
          config.trust = &trust;
          config.required_peer_usage = crypto::kUsageServerAuth;
          config.ticket_manager = &tickets;
          auto channel = SecureChannel::as_server(
              engine, rng, std::move(endpoint), config, [](util::Status) {});
          channel->set_receiver([weak = std::weak_ptr(channel)](
                                    util::Bytes&& message) {
            if (auto self = weak.lock()) self->send(std::move(message));
          });
          server_channels.push_back(std::move(channel));
        });
  }

  std::shared_ptr<ChannelPool> make_pool(std::size_t size) {
    ChannelPool::Config config;
    config.local_host = "client";
    config.remote = {"server", 7700};
    config.size = size;
    config.channel.credential = client_cred;
    config.channel.trust = &trust;
    config.channel.required_peer_usage = crypto::kUsageServerAuth;
    config.channel.session_cache = &cache;
    return ChannelPool::create(engine, network, rng, config);
  }
};

TEST_F(PoolFixture, LazyConnectAndEcho) {
  auto pool = make_pool(2);
  std::vector<std::pair<std::size_t, std::string>> received;
  pool->set_receiver([&](std::size_t slot, util::Bytes&& message) {
    received.emplace_back(slot, util::to_string(message));
  });
  EXPECT_FALSE(pool->slot_established(0));
  pool->send_on(0, util::to_bytes("hello"));
  engine.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (std::pair<std::size_t, std::string>{0, "hello"}));
  EXPECT_TRUE(pool->slot_established(0));
  EXPECT_FALSE(pool->slot_established(1));  // untouched slots stay cold
  EXPECT_EQ(pool->connects(), 1u);
}

TEST_F(PoolFixture, BacklogFlushesAfterHandshake) {
  auto pool = make_pool(1);
  std::vector<std::string> received;
  pool->set_receiver([&](std::size_t, util::Bytes&& message) {
    received.push_back(util::to_string(message));
  });
  // All queued before the handshake completes; order must hold.
  pool->send_on(0, util::to_bytes("a"));
  pool->send_on(0, util::to_bytes("b"));
  pool->send_on(0, util::to_bytes("c"));
  engine.run();
  EXPECT_EQ(received, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(pool->connects(), 1u);  // one handshake served the backlog
}

TEST_F(PoolFixture, RoundRobinCoversEverySlot) {
  auto pool = make_pool(3);
  EXPECT_EQ(pool->next_slot(), 0u);
  EXPECT_EQ(pool->next_slot(), 1u);
  EXPECT_EQ(pool->next_slot(), 2u);
  EXPECT_EQ(pool->next_slot(), 0u);
}

TEST_F(PoolFixture, LaterSlotsResumeTheFirstSlotsSession) {
  auto pool = make_pool(3);
  pool->set_receiver([](std::size_t, util::Bytes&&) {});
  pool->send_on(0, util::to_bytes("warm"));
  engine.run();
  ASSERT_EQ(pool->resumptions(), 0u);  // first connect is full
  pool->send_on(1, util::to_bytes("x"));
  pool->send_on(2, util::to_bytes("y"));
  engine.run();
  EXPECT_EQ(pool->connects(), 3u);
  EXPECT_EQ(pool->resumptions(), 2u);  // both drew from the shared cache
  EXPECT_TRUE(pool->slot_channel(1)->resumed());
  EXPECT_TRUE(pool->slot_channel(2)->resumed());
}

TEST_F(PoolFixture, SlotFailureIsIsolatedAndReconnectable) {
  auto pool = make_pool(2);
  std::vector<std::string> received;
  pool->set_receiver([&](std::size_t, util::Bytes&& message) {
    received.push_back(util::to_string(message));
  });
  std::vector<std::size_t> failed_slots;
  pool->set_slot_failure([&](std::size_t slot, const util::Error&) {
    failed_slots.push_back(slot);
  });
  pool->send_on(0, util::to_bytes("a"));
  pool->send_on(1, util::to_bytes("b"));
  engine.run();
  ASSERT_EQ(received.size(), 2u);

  // Kill slot 0's channel from the server side.
  server_channels[0]->close();
  engine.run();
  ASSERT_EQ(failed_slots, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(pool->slot_established(0));
  EXPECT_TRUE(pool->slot_established(1));  // the other slot kept working

  // The failed slot reconnects on next use — resuming, not re-validating.
  pool->send_on(0, util::to_bytes("again"));
  engine.run();
  EXPECT_EQ(received.back(), "again");
  EXPECT_TRUE(pool->slot_channel(0)->resumed());
}

TEST_F(PoolFixture, ShutdownFiresNoFailureHandlers) {
  auto pool = make_pool(2);
  pool->set_receiver([](std::size_t, util::Bytes&&) {});
  bool failure_fired = false;
  pool->set_slot_failure(
      [&](std::size_t, const util::Error&) { failure_fired = true; });
  pool->send_on(0, util::to_bytes("x"));
  engine.run();
  pool->shutdown();
  engine.run();
  EXPECT_FALSE(failure_fired);
}

}  // namespace
}  // namespace unicore::net
