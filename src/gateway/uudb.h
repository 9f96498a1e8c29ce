// The site's user database for certificate -> login mapping.
//
// "With the X.509 user certificate being the uniform and unique UNICORE
//  user identification a mapping process has been implemented in the
//  form of a Java servlet which maps the user's distinguished name to
//  the corresponding user-id. Each UNICORE site administration therefore
//  maintains a user data base for the local mapping." (§5.2)
//
// "This mechanism eliminates the need to install uniform UNIX uid/gid
//  pairs for UNICORE users." (§4)
//
// The database is sharded by a hash of the subject DN. Each shard keeps
// its own generation counter, bumped only by edits to that shard, so a
// consumer that memoizes a lookup (the gateway auth cache, the session
// broker) can stamp the generation of the *subject's* shard and stay
// valid across edits to every other shard. The aggregate generation()
// remains for coarse consumers that want "anything changed".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/x509.h"
#include "util/result.h"

namespace unicore::gateway {

/// One mapping entry: the local identity a certificate resolves to.
struct UserEntry {
  std::string login;                         // local user-id at the Vsites
  std::vector<std::string> account_groups;   // groups the user may charge
  bool suspended = false;                    // site admin kill switch

  bool in_group(const std::string& group) const {
    for (const auto& g : account_groups)
      if (g == group) return true;
    return false;
  }
};

/// Stable shard index for a DN rendering (FNV-1a — identical across
/// processes, so every gateway replica of a Usite agrees on the shard).
std::size_t dn_shard_of(const std::string& dn, std::size_t shard_count);

class UserDatabase {
 public:
  static constexpr std::size_t kShards = 16;

  /// Adds or replaces the mapping for `dn`.
  void add_mapping(const crypto::DistinguishedName& dn, UserEntry entry);

  util::Status remove_mapping(const crypto::DistinguishedName& dn);

  /// Marks/unmarks a user as suspended without removing the mapping.
  util::Status set_suspended(const crypto::DistinguishedName& dn,
                             bool suspended);

  util::Result<UserEntry> lookup(const crypto::DistinguishedName& dn) const;

  std::size_t size() const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(const crypto::DistinguishedName& dn) const {
    return dn_shard_of(dn.to_string(), shards_.size());
  }

  /// Generation of one shard; bumped only by edits to that shard.
  std::uint64_t shard_generation(std::size_t shard) const {
    return shards_[shard % shards_.size()].generation;
  }

  /// Generation of the *subject's* shard — what per-DN memoizers stamp.
  std::uint64_t generation(const crypto::DistinguishedName& dn) const {
    return shards_[shard_of(dn)].generation;
  }

  /// Aggregate generation: changes on every mapping edit anywhere.
  /// Coarse consumers that only need "did anything change" use this.
  std::uint64_t generation() const;

 private:
  // Keyed by the RFC 2253 rendering of the DN — distinct DNs render
  // distinctly because attribute order is fixed.
  struct Shard {
    std::map<std::string, UserEntry> entries;
    std::uint64_t generation = 1;
  };

  Shard& shard_for(const std::string& key) {
    return shards_[dn_shard_of(key, shards_.size())];
  }
  const Shard& shard_for(const std::string& key) const {
    return shards_[dn_shard_of(key, shards_.size())];
  }

  std::vector<Shard> shards_ = std::vector<Shard>(kShards);
};

}  // namespace unicore::gateway
