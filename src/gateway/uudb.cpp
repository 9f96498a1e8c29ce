#include "gateway/uudb.h"

namespace unicore::gateway {

using util::ErrorCode;
using util::Result;
using util::Status;

std::size_t dn_shard_of(const std::string& dn, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // FNV-1a, 64 bit: stable across processes so every gateway replica
  // maps a subject to the same shard.
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : dn) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shard_count);
}

void UserDatabase::add_mapping(const crypto::DistinguishedName& dn,
                               UserEntry entry) {
  std::string key = dn.to_string();
  Shard& shard = shard_for(key);
  shard.entries.insert_or_assign(std::move(key), std::move(entry));
  ++shard.generation;
}

Status UserDatabase::remove_mapping(const crypto::DistinguishedName& dn) {
  const std::string key = dn.to_string();
  Shard& shard = shard_for(key);
  if (shard.entries.erase(key) == 0)
    return util::make_error(ErrorCode::kNotFound, "no mapping for " + key);
  ++shard.generation;
  return Status::ok_status();
}

Status UserDatabase::set_suspended(const crypto::DistinguishedName& dn,
                                   bool suspended) {
  const std::string key = dn.to_string();
  Shard& shard = shard_for(key);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end())
    return util::make_error(ErrorCode::kNotFound, "no mapping for " + key);
  it->second.suspended = suspended;
  ++shard.generation;
  return Status::ok_status();
}

Result<UserEntry> UserDatabase::lookup(
    const crypto::DistinguishedName& dn) const {
  const std::string key = dn.to_string();
  const Shard& shard = shard_for(key);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end())
    return util::make_error(ErrorCode::kPermissionDenied,
                            "no local mapping for " + key);
  return it->second;
}

std::size_t UserDatabase::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.entries.size();
  return total;
}

std::uint64_t UserDatabase::generation() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.generation;
  return total;
}

}  // namespace unicore::gateway
