#include "store/chunk_store.h"

#include <utility>

namespace unicore::store {

using util::ErrorCode;
using util::make_error;
using util::Result;
using util::Status;

// ---- MemorySpillBackend ----------------------------------------------------

Status MemorySpillBackend::write(const crypto::Digest& digest,
                                 const util::Bytes& data) {
  spilled_[digest] = data;
  return Status::ok_status();
}

Result<util::Bytes> MemorySpillBackend::read(const crypto::Digest& digest) {
  auto it = spilled_.find(digest);
  if (it == spilled_.end())
    return make_error(ErrorCode::kNotFound, "chunk not in spill tier");
  return it->second;
}

void MemorySpillBackend::erase(const crypto::Digest& digest) {
  spilled_.erase(digest);
}

// ---- ChunkStore ------------------------------------------------------------

void ChunkStore::set_metrics(std::shared_ptr<obs::MetricsRegistry> registry,
                             std::string site) {
  metrics_ = std::move(registry);
  site_ = std::move(site);
  series_ = {};
  refresh_gauges();
}

obs::Counter& ChunkStore::series(obs::Counter*& handle, std::string_view name) {
  if (handle == nullptr) handle = &metrics_->counter(name, {{"site", site_}});
  return *handle;
}

obs::Gauge& ChunkStore::series(obs::Gauge*& handle, std::string_view name) {
  if (handle == nullptr) handle = &metrics_->gauge(name, {{"site", site_}});
  return *handle;
}

std::uint64_t ChunkStore::refcount(const crypto::Digest& digest) const {
  auto it = chunks_.find(digest);
  return it == chunks_.end() ? 0 : it->second.refs;
}

void ChunkStore::count_dedup(const ChunkRec& rec) {
  ++stats_.dedup_hits;
  stats_.dedup_bytes_saved += rec.length;
  if (metrics_ != nullptr) {
    series(series_.dedup_hits, "unicore_store_dedup_hits_total").increment();
    series(series_.dedup_bytes_saved, "unicore_store_dedup_bytes_saved_total")
        .add(static_cast<double>(rec.length));
  }
}

Status ChunkStore::add_chunk(const crypto::Digest& digest,
                             util::ByteView data) {
  auto it = chunks_.find(digest);
  if (it != chunks_.end()) {
    ChunkRec& rec = it->second;
    if (rec.synthetic || rec.length != data.size())
      return make_error(ErrorCode::kInvalidArgument,
                        "digest collision: stored chunk has a different "
                        "shape (store and wire digests out of sync?)");
    if (rec.spilled) {
      if (crypto::chunk_content_digest(data) != digest)
        return make_error(ErrorCode::kInvalidArgument,
                          "chunk bytes do not match their digest");
      if (spill_ != nullptr) spill_->erase(digest);
      rec.data.assign(data.begin(), data.end());
      rec.spilled = false;
      rec.lru_seq = next_seq_++;
      lru_.emplace(rec.lru_seq, digest);
      stats_.spilled_bytes -= rec.length;
      stats_.resident_bytes += rec.length;
    }
    ++rec.refs;
    ++stats_.total_refs;
    stats_.logical_bytes += rec.length;
    count_dedup(rec);
    touch(digest, rec);
    maybe_evict();
    refresh_gauges();
    return Status::ok_status();
  }

  ChunkRec rec;
  rec.length = static_cast<std::uint32_t>(data.size());
  rec.refs = 1;
  rec.data.assign(data.begin(), data.end());
  rec.lru_seq = next_seq_++;
  lru_.emplace(rec.lru_seq, digest);
  stats_.resident_bytes += rec.length;
  stats_.physical_bytes += rec.length;
  stats_.logical_bytes += rec.length;
  ++stats_.chunks;
  ++stats_.total_refs;
  chunks_.emplace(digest, std::move(rec));
  maybe_evict();
  refresh_gauges();
  return Status::ok_status();
}

Status ChunkStore::add_synthetic_chunk(const crypto::Digest& digest,
                                       std::uint32_t length) {
  auto it = chunks_.find(digest);
  if (it != chunks_.end()) {
    ChunkRec& rec = it->second;
    if (!rec.synthetic || rec.length != length)
      return make_error(ErrorCode::kInvalidArgument,
                        "digest collision: stored chunk has a different "
                        "shape (store and wire digests out of sync?)");
    ++rec.refs;
    ++stats_.total_refs;
    stats_.logical_bytes += rec.length;
    count_dedup(rec);
    refresh_gauges();
    return Status::ok_status();
  }

  ChunkRec rec;
  rec.length = length;
  rec.synthetic = true;
  rec.refs = 1;
  ++stats_.chunks;
  ++stats_.total_refs;
  stats_.logical_bytes += length;
  chunks_.emplace(digest, std::move(rec));
  refresh_gauges();
  return Status::ok_status();
}

bool ChunkStore::add_ref(const crypto::Digest& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return false;
  ChunkRec& rec = it->second;
  ++rec.refs;
  ++stats_.total_refs;
  stats_.logical_bytes += rec.length;
  count_dedup(rec);
  refresh_gauges();
  return true;
}

void ChunkStore::release(const crypto::Digest& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return;  // double-release is a no-op
  ChunkRec& rec = it->second;
  --stats_.total_refs;
  stats_.logical_bytes -= rec.length;
  if (--rec.refs > 0) {
    refresh_gauges();
    return;
  }
  // Last reference: reclaim the physical bytes from whichever tier
  // holds them.
  if (!rec.synthetic) {
    stats_.physical_bytes -= rec.length;
    stats_.reclaimed_bytes += rec.length;
    if (rec.spilled) {
      stats_.spilled_bytes -= rec.length;
      if (spill_ != nullptr) spill_->erase(digest);
    } else {
      stats_.resident_bytes -= rec.length;
      lru_.erase(rec.lru_seq);
    }
  }
  ++stats_.reclaimed_chunks;
  --stats_.chunks;
  chunks_.erase(it);
  if (metrics_ != nullptr)
    series(series_.reclaimed_chunks, "unicore_store_reclaimed_chunks_total")
        .increment();
  refresh_gauges();
}

Result<util::Bytes> ChunkStore::read(const crypto::Digest& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end())
    return make_error(ErrorCode::kNotFound, "no such chunk in the store");
  ChunkRec& rec = it->second;
  if (rec.synthetic)
    return make_error(ErrorCode::kFailedPrecondition,
                      "synthetic chunk carries no payload bytes");
  if (rec.spilled) {
    // Fault the chunk back into the hot tier.
    if (spill_ == nullptr)
      return make_error(ErrorCode::kInternal,
                        "chunk spilled but the spill backend is gone");
    auto data = spill_->read(digest);
    if (!data.ok()) return data.error();
    // The cold tier is outside the store: its bytes must still be the
    // chunk filed under this digest before they count as it again. A
    // chunk that fails stays spilled and the accounting stays as it was.
    if (data.value().size() != rec.length ||
        crypto::chunk_content_digest(data.value()) != digest)
      return make_error(ErrorCode::kInternal,
                        "spilled chunk failed its digest check");
    spill_->erase(digest);
    rec.data = data.value();
    rec.spilled = false;
    rec.lru_seq = next_seq_++;
    lru_.emplace(rec.lru_seq, digest);
    stats_.spilled_bytes -= rec.length;
    stats_.resident_bytes += rec.length;
    ++stats_.faults;
    if (metrics_ != nullptr)
      series(series_.faults, "unicore_store_faults_total").increment();
    // The eviction below may spill this very chunk again (a budget
    // smaller than one chunk), so the caller gets the verified copy.
    maybe_evict();
    refresh_gauges();
    return data;
  }
  touch(digest, rec);
  return rec.data;
}

Result<std::uint32_t> ChunkStore::chunk_length(
    const crypto::Digest& digest) const {
  auto it = chunks_.find(digest);
  if (it == chunks_.end())
    return make_error(ErrorCode::kNotFound, "no such chunk in the store");
  return it->second.length;
}

void ChunkStore::touch(const crypto::Digest& digest, ChunkRec& rec) {
  if (rec.synthetic || rec.spilled) return;
  lru_.erase(rec.lru_seq);
  rec.lru_seq = next_seq_++;
  lru_.emplace(rec.lru_seq, digest);
}

void ChunkStore::maybe_evict() {
  if (spill_ == nullptr || config_.resident_budget_bytes == 0) return;
  while (stats_.resident_bytes > config_.resident_budget_bytes &&
         !lru_.empty()) {
    auto coldest = lru_.begin();
    crypto::Digest digest = coldest->second;
    lru_.erase(coldest);
    ChunkRec& rec = chunks_.at(digest);
    if (!spill_->write(digest, rec.data).ok()) {
      // A failing cold tier must not lose data: keep the chunk resident
      // and stop evicting (the budget is advisory, the payload is not).
      rec.lru_seq = next_seq_++;
      lru_.emplace(rec.lru_seq, digest);
      return;
    }
    rec.data.clear();
    rec.data.shrink_to_fit();
    rec.spilled = true;
    stats_.resident_bytes -= rec.length;
    stats_.spilled_bytes += rec.length;
    ++stats_.spills;
    if (metrics_ != nullptr)
      series(series_.spills, "unicore_store_spills_total").increment();
  }
}

void ChunkStore::refresh_gauges() {
  if (metrics_ == nullptr) return;
  series(series_.chunks, "unicore_store_chunks")
      .set(static_cast<double>(stats_.chunks));
  series(series_.physical_bytes, "unicore_store_physical_bytes")
      .set(static_cast<double>(stats_.physical_bytes));
  series(series_.resident_bytes, "unicore_store_resident_bytes")
      .set(static_cast<double>(stats_.resident_bytes));
  series(series_.spilled_bytes, "unicore_store_spilled_bytes")
      .set(static_cast<double>(stats_.spilled_bytes));
  series(series_.logical_bytes, "unicore_store_logical_bytes")
      .set(static_cast<double>(stats_.logical_bytes));
  series(series_.total_refs, "unicore_store_total_refs")
      .set(static_cast<double>(stats_.total_refs));
}

// ---- PinnedBlob ------------------------------------------------------------

PinnedBlob::~PinnedBlob() {
  for (const crypto::Digest& digest : manifest_.chunks)
    store_->release(digest);
}

Result<util::Bytes> PinnedBlob::chunk(std::uint64_t index) const {
  if (index >= manifest_.chunks.size())
    return make_error(ErrorCode::kInvalidArgument,
                      "chunk index beyond the manifest");
  return store_->read(manifest_.chunks[index]);
}

Status PinnedBlob::read_range(std::uint64_t offset, std::uint64_t length,
                              util::Bytes& out) const {
  if (offset + length > manifest_.size)
    return make_error(ErrorCode::kInvalidArgument,
                      "read beyond the end of the file");
  out.reserve(out.size() + length);
  while (length > 0) {
    std::uint64_t index = offset / kDefaultStoreChunkBytes;
    std::uint64_t within = offset % kDefaultStoreChunkBytes;
    auto data = chunk(index);
    if (!data.ok()) return data.error();
    std::uint64_t take = data.value().size() - within;
    if (take > length) take = length;
    out.insert(out.end(),
               data.value().begin() + static_cast<std::ptrdiff_t>(within),
               data.value().begin() +
                   static_cast<std::ptrdiff_t>(within + take));
    offset += take;
    length -= take;
  }
  return Status::ok_status();
}

// ---- interning -------------------------------------------------------------

namespace {

Status check_chunk_bytes(std::uint32_t chunk_bytes) {
  if (chunk_bytes != kDefaultStoreChunkBytes)
    return make_error(ErrorCode::kInvalidArgument,
                      "the store's chunk size is 1 MiB");
  return Status::ok_status();
}

}  // namespace

Result<std::shared_ptr<const PinnedBlob>> intern_bytes(
    std::shared_ptr<ChunkStore> chunk_store, util::ByteView content,
    const crypto::Digest& checksum, std::uint32_t chunk_bytes,
    std::span<const crypto::Digest> digests) {
  if (Status size = check_chunk_bytes(chunk_bytes); !size.ok())
    return size.error();
  BlobManifest manifest;
  manifest.size = content.size();
  manifest.checksum = checksum;
  std::uint64_t count = crypto::chunk_count(manifest.size, chunk_bytes);
  bool held = digests.size() == count;
  manifest.chunks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t length = manifest.length_of(i);
    util::ByteView piece(content.data() + i * chunk_bytes, length);
    crypto::Digest digest =
        held ? digests[i] : crypto::chunk_content_digest(piece);
    util::Status added = chunk_store->add_chunk(digest, piece);
    if (!added.ok()) {
      // Unwind the refs taken so far; the store stays exact.
      for (const crypto::Digest& taken : manifest.chunks)
        chunk_store->release(taken);
      return added.error();
    }
    manifest.chunks.push_back(digest);
  }
  return std::make_shared<const PinnedBlob>(std::move(chunk_store),
                                            std::move(manifest));
}

Result<std::shared_ptr<const PinnedBlob>> intern_synthetic(
    std::shared_ptr<ChunkStore> chunk_store, std::uint64_t size,
    const crypto::Digest& checksum, std::uint32_t chunk_bytes) {
  if (Status size = check_chunk_bytes(chunk_bytes); !size.ok())
    return size.error();
  BlobManifest manifest;
  manifest.size = size;
  manifest.checksum = checksum;
  manifest.synthetic = true;
  std::uint64_t count = crypto::chunk_count(size, chunk_bytes);
  manifest.chunks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t length = manifest.length_of(i);
    crypto::Digest digest = crypto::synthetic_chunk_digest(checksum, i, length);
    util::Status added = chunk_store->add_synthetic_chunk(digest, length);
    if (!added.ok()) {
      for (const crypto::Digest& taken : manifest.chunks)
        chunk_store->release(taken);
      return added.error();
    }
    manifest.chunks.push_back(digest);
  }
  return std::make_shared<const PinnedBlob>(std::move(chunk_store),
                                            std::move(manifest));
}

}  // namespace unicore::store
