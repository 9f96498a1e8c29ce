#include "net/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/network.h"
#include "net/secure_channel.h"

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

struct TicketFixture : public ::testing::Test {
  util::Rng rng{11};
  crypto::CertificateAuthority ca{dn("CA"), rng, kSimulationEpoch, 10 * kYear};
  crypto::TrustStore trust;
  crypto::Credential peer = ca.issue_credential(
      dn("peer"), rng, kSimulationEpoch, kYear, crypto::kUsageServerAuth);
  SessionTicketManager tickets{rng};
  std::int64_t now = kSimulationEpoch + 100;

  void SetUp() override {
    trust.add_root(ca.certificate());
    tickets.attach_trust(&trust);
  }

  ResumptionState state() {
    ResumptionState s;
    s.master_secret = rng.bytes(32);
    s.peer_certificate = peer.certificate;
    return s;
  }
};

TEST_F(TicketFixture, IssueRedeemRoundTrip) {
  ResumptionState original = state();
  util::Bytes ticket = tickets.issue(original, now);
  auto redeemed = tickets.redeem(ticket, now + 10);
  ASSERT_TRUE(redeemed.ok());
  EXPECT_EQ(redeemed.value().master_secret, original.master_secret);
  EXPECT_EQ(redeemed.value().peer_certificate, original.peer_certificate);
  EXPECT_EQ(tickets.issued(), 1u);
  EXPECT_EQ(tickets.redeemed(), 1u);
}

TEST_F(TicketFixture, TicketIsOpaque) {
  // The master secret must not appear in the sealed capsule.
  ResumptionState original = state();
  util::Bytes ticket = tickets.issue(original, now);
  auto& secret = original.master_secret;
  auto it = std::search(ticket.begin(), ticket.end(), secret.begin(),
                        secret.end());
  EXPECT_EQ(it, ticket.end());
}

TEST_F(TicketFixture, ExpiredTicketRefused) {
  tickets.set_ttl(60);
  util::Bytes ticket = tickets.issue(state(), now);
  EXPECT_TRUE(tickets.redeem(ticket, now + 59).ok());
  util::Bytes again = tickets.issue(state(), now);
  EXPECT_FALSE(tickets.redeem(again, now + 60).ok());
  EXPECT_EQ(tickets.refused(), 1u);
}

TEST_F(TicketFixture, InvalidateAllRefusesOutstandingTickets) {
  util::Bytes ticket = tickets.issue(state(), now);
  tickets.invalidate_all();
  EXPECT_FALSE(tickets.redeem(ticket, now + 1).ok());
  // Tickets minted after the invalidation are fine.
  util::Bytes fresh = tickets.issue(state(), now);
  EXPECT_TRUE(tickets.redeem(fresh, now + 1).ok());
}

TEST_F(TicketFixture, TrustGenerationChangeRefusesTickets) {
  util::Bytes ticket = tickets.issue(state(), now);
  ASSERT_TRUE(trust.add_crl(ca.crl(now)).ok());  // bumps the generation
  EXPECT_FALSE(tickets.redeem(ticket, now + 1).ok());
  EXPECT_EQ(tickets.refused(), 1u);
}

TEST_F(TicketFixture, CertificateOutsideValidityRefused) {
  util::Bytes ticket = tickets.issue(state(), now);
  // Long TTL, but the certificate inside expires first.
  tickets.set_ttl(100 * kYear);
  util::Bytes long_lived = tickets.issue(state(), now);
  EXPECT_TRUE(tickets.redeem(ticket, now + 1).ok());
  EXPECT_FALSE(tickets.redeem(long_lived, kSimulationEpoch + 2 * kYear).ok());
}

TEST_F(TicketFixture, TamperedTicketRefused) {
  util::Bytes ticket = tickets.issue(state(), now);
  for (std::size_t pos : {std::size_t{0}, ticket.size() / 2,
                          ticket.size() - 1}) {
    util::Bytes bad = ticket;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(tickets.redeem(bad, now + 1).ok()) << "byte " << pos;
  }
  EXPECT_TRUE(tickets.redeem(ticket, now + 1).ok());
}

TEST(SessionCacheTest, GetDropsExpiredEntries) {
  SessionCache cache;
  SessionCache::Entry entry;
  entry.expires_at = 1'000;
  cache.put("a:1", entry);
  EXPECT_NE(cache.get("a:1", 999), nullptr);
  EXPECT_EQ(cache.get("a:1", 1'000), nullptr);  // dropped on read
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SessionCacheTest, KeyedPerDestination) {
  SessionCache cache;
  SessionCache::Entry entry;
  entry.expires_at = 1'000;
  cache.put(SessionCache::key_for("host", 443), entry);
  EXPECT_EQ(SessionCache::key_for("host", 443), "host:443");
  EXPECT_NE(cache.get("host:443", 0), nullptr);
  EXPECT_EQ(cache.get("host:444", 0), nullptr);
  cache.remove("host:443");
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace unicore::net
