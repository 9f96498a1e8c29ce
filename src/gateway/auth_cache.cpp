#include "gateway/auth_cache.h"

#include "gateway/uudb.h"

namespace unicore::gateway {

void AuthenticatedUser::encode(util::ByteWriter& w) const {
  dn.encode(w);
  w.str(login);
  w.strings(account_groups);
}

AuthenticatedUser AuthenticatedUser::decode(util::ByteReader& r) {
  AuthenticatedUser user;
  user.dn = crypto::DistinguishedName::decode(r);
  user.login = r.str();
  user.account_groups = r.strings();
  return user;
}

ShardedAuthCache::ShardedAuthCache() {
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

void ShardedAuthCache::set_ttl(std::int64_t seconds) {
  ttl_ = seconds;
  if (seconds == 0) invalidate_all();
}

void ShardedAuthCache::set_metrics(obs::MetricsRegistry* registry,
                                   std::string usite) {
  metrics_ = registry;
  usite_ = std::move(usite);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->series = {};
  }
}

ShardedAuthCache::Shard& ShardedAuthCache::shard_for(
    const std::string& subject) {
  return *shards_[dn_shard_of(subject, shards_.size())];
}

void ShardedAuthCache::count(Shard& shard, bool hit) {
  if (!metrics_) return;
  obs::Counter*& counter = hit ? shard.series.hit : shard.series.miss;
  if (counter == nullptr)
    counter = &metrics_->counter("unicore_gateway_auth_cache_total",
                                 {{"usite", usite_},
                                  {"result", hit ? "hit" : "miss"}});
  counter->increment();
}

void ShardedAuthCache::publish_shard_gauges(std::size_t index, Shard& shard) {
  if (!metrics_) return;
  Series& series = shard.series;
  if (series.hits == nullptr) {
    obs::Labels labels{{"usite", usite_}, {"shard", std::to_string(index)}};
    series.hits = &metrics_->gauge("unicore_gateway_auth_shard_hits", labels);
    series.misses =
        &metrics_->gauge("unicore_gateway_auth_shard_misses", labels);
    series.entries =
        &metrics_->gauge("unicore_gateway_auth_shard_entries", labels);
  }
  series.hits->set(static_cast<std::int64_t>(shard.hits));
  series.misses->set(static_cast<std::int64_t>(shard.misses));
  series.entries->set(static_cast<std::int64_t>(shard.entries.size()));
}

std::optional<AuthenticatedUser> ShardedAuthCache::lookup(
    const crypto::Certificate& cert, std::int64_t now,
    std::uint64_t trust_generation, std::uint64_t uudb_generation) {
  if (ttl_ == 0) return std::nullopt;
  const std::string subject = cert.subject.to_string();
  const std::size_t index = dn_shard_of(subject, shards_.size());
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(subject);
  if (it != shard.entries.end()) {
    const Entry& cached = it->second;
    if (cached.certificate == cert &&
        cached.trust_generation == trust_generation &&
        cached.uudb_generation == uudb_generation &&
        now < cached.cached_at + ttl_ && cached.certificate.valid_at(now)) {
      ++shard.hits;
      count(shard, /*hit=*/true);
      publish_shard_gauges(index, shard);
      return cached.user;
    }
    shard.entries.erase(it);  // stale — fall through to the full path
  }
  ++shard.misses;
  count(shard, /*hit=*/false);
  publish_shard_gauges(index, shard);
  return std::nullopt;
}

void ShardedAuthCache::store(const crypto::Certificate& cert,
                             const AuthenticatedUser& user, std::int64_t now,
                             std::uint64_t trust_generation,
                             std::uint64_t uudb_generation) {
  if (ttl_ == 0) return;
  const std::string subject = cert.subject.to_string();
  const std::size_t index = dn_shard_of(subject, shards_.size());
  Shard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.entries[subject] = {cert, user, now, trust_generation,
                            uudb_generation};
  publish_shard_gauges(index, shard);
}

void ShardedAuthCache::invalidate_all() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    publish_shard_gauges(i, shard);
  }
}

std::uint64_t ShardedAuthCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->hits;
  }
  return total;
}

std::uint64_t ShardedAuthCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->misses;
  }
  return total;
}

std::size_t ShardedAuthCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

std::uint64_t ShardedAuthCache::shard_hits(std::size_t shard) const {
  const Shard& s = *shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.hits;
}

std::uint64_t ShardedAuthCache::shard_misses(std::size_t shard) const {
  const Shard& s = *shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.misses;
}

std::size_t ShardedAuthCache::shard_size(std::size_t shard) const {
  const Shard& s = *shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.entries.size();
}

}  // namespace unicore::gateway
