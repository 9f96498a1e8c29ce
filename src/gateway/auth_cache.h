// The gateway's authentication fast path: successful
// authenticate_user results memoized per subject DN, sharded by the
// same DN hash as the UUDB.
//
// Each shard carries its own hit/miss counters and map. N gateway
// replicas fronting one Usite share a single cache, so one fill warms
// every replica; like the rest of the Usite, they run on the simulation
// thread, and the cache takes no lock. Entries stamp the trust-store
// generation and the generation of the *subject's UUDB shard*; a CRL
// change still flushes everything (trust is global), but a UUDB edit
// only invalidates the one shard it touched — every other subject's
// cached decision stays hot.
//
// Only positives are cached; rejections always re-run the full path.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/x509.h"
#include "obs/metrics.h"

namespace unicore::gateway {

/// Result of a successful authentication: who the certificate is locally.
/// The gateway hands it to the NJS with every request, and the NJS
/// journals it with every consignment, in one encoding.
struct AuthenticatedUser {
  crypto::DistinguishedName dn;
  std::string login;
  std::vector<std::string> account_groups;

  void encode(util::ByteWriter& w) const;
  static AuthenticatedUser decode(util::ByteReader& r);
};

class ShardedAuthCache {
 public:
  static constexpr std::size_t kShards = 16;

  std::size_t shard_count() const { return shards_.size(); }

  /// Seconds a cached decision stays valid; 0 disables the cache.
  void set_ttl(std::int64_t seconds);
  std::int64_t ttl() const { return ttl_; }

  /// Counts hits/misses into unicore_gateway_auth_cache_total{usite,
  /// result} and keeps the per-shard gauges
  /// unicore_gateway_auth_shard_{hits,misses,entries}{usite,shard}
  /// current. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry, std::string usite);

  /// A hit requires the presented certificate to equal the cached one
  /// byte for byte, both generation stamps to be current, the TTL to
  /// have time left, and the certificate itself to still be in its
  /// validity window. A stale entry is erased on the way through.
  std::optional<AuthenticatedUser> lookup(const crypto::Certificate& cert,
                                          std::int64_t now,
                                          std::uint64_t trust_generation,
                                          std::uint64_t uudb_generation);

  /// Caches a positive decision under the given generation stamps.
  void store(const crypto::Certificate& cert, const AuthenticatedUser& user,
             std::int64_t now, std::uint64_t trust_generation,
             std::uint64_t uudb_generation);

  /// Drops every cached decision (e.g. after an out-of-band revocation).
  void invalidate_all();

  // Aggregates across shards.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;

  // Per-shard introspection for tests and the bench.
  std::uint64_t shard_hits(std::size_t shard) const;
  std::uint64_t shard_misses(std::size_t shard) const;
  std::size_t shard_size(std::size_t shard) const;

 private:
  struct Entry {
    crypto::Certificate certificate;  // must match the presented one
    AuthenticatedUser user;
    std::int64_t cached_at = 0;
    std::uint64_t trust_generation = 0;
    std::uint64_t uudb_generation = 0;
  };
  /// One shard's series handles, resolved on first use and dropped by
  /// set_metrics.
  struct Series {
    obs::Counter* hit = nullptr;  // unicore_gateway_auth_cache_total
    obs::Counter* miss = nullptr;
    obs::Gauge* hits = nullptr;  // unicore_gateway_auth_shard_*
    obs::Gauge* misses = nullptr;
    obs::Gauge* entries = nullptr;
  };
  struct Shard {
    std::map<std::string, Entry> entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    Series series;
  };

  void count(Shard& shard, bool hit);
  void publish_shard_gauges(std::size_t index, Shard& shard);

  std::array<Shard, kShards> shards_;
  std::int64_t ttl_ = 300;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string usite_;
};

}  // namespace unicore::gateway
