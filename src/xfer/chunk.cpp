#include "xfer/chunk.h"

#include <algorithm>
#include <utility>

namespace unicore::xfer {

using util::ErrorCode;
using util::make_error;

bool ChunkBitmap::set(std::uint64_t index) {
  if (index >= have_.size() || have_[index]) return false;
  have_[index] = true;
  ++count_;
  return true;
}

std::vector<ChunkRange> ChunkBitmap::ranges() const {
  std::vector<ChunkRange> out;
  std::uint64_t i = 0;
  while (i < have_.size()) {
    if (!have_[i]) {
      ++i;
      continue;
    }
    std::uint64_t first = i;
    while (i < have_.size() && have_[i]) ++i;
    out.push_back(ChunkRange{first, i - first});
  }
  return out;
}

void ChunkBitmap::apply(const std::vector<ChunkRange>& ranges) {
  for (const ChunkRange& range : ranges) {
    // Clamped to the bitmap: a garbled range cannot spin past the end.
    std::uint64_t first = std::min(range.first, total());
    std::uint64_t end = first + std::min(range.count, total() - first);
    for (std::uint64_t i = first; i < end; ++i) set(i);
  }
}

std::vector<std::uint64_t> ChunkBitmap::missing() const {
  std::vector<std::uint64_t> out;
  out.reserve(have_.size() - count_);
  for (std::uint64_t i = 0; i < have_.size(); ++i) {
    if (!have_[i]) out.push_back(i);
  }
  return out;
}

Assembly::Assembly(std::uint64_t size, const crypto::Digest& checksum,
                   bool synthetic)
    : size_(size),
      checksum_(checksum),
      synthetic_(synthetic),
      bitmap_(chunk_count(size)) {}

Assembly::~Assembly() { release_refs(); }

Assembly::Assembly(Assembly&& other) noexcept
    : size_(other.size_),
      checksum_(other.checksum_),
      synthetic_(other.synthetic_),
      bitmap_(std::move(other.bitmap_)),
      buffers_(std::move(other.buffers_)),
      buffered_bytes_(other.buffered_bytes_),
      store_(std::move(other.store_)),
      digests_(std::move(other.digests_)),
      finished_(std::move(other.finished_)) {
  // The moved-from assembly must not release the references we now own.
  other.store_.reset();
  other.digests_.clear();
}

Assembly& Assembly::operator=(Assembly&& other) noexcept {
  if (this == &other) return *this;
  release_refs();
  size_ = other.size_;
  checksum_ = other.checksum_;
  synthetic_ = other.synthetic_;
  bitmap_ = std::move(other.bitmap_);
  buffers_ = std::move(other.buffers_);
  buffered_bytes_ = other.buffered_bytes_;
  store_ = std::move(other.store_);
  digests_ = std::move(other.digests_);
  finished_ = std::move(other.finished_);
  other.store_.reset();
  other.digests_.clear();
  return *this;
}

void Assembly::release_refs() {
  if (store_ == nullptr) return;
  for (const auto& [index, digest] : digests_) store_->release(digest);
  digests_.clear();
}

void Assembly::attach_store(std::shared_ptr<store::ChunkStore> chunk_store) {
  store_ = std::move(chunk_store);
}

std::uint64_t Assembly::satisfy_from_store(
    const std::vector<crypto::Digest>& digests) {
  if (store_ == nullptr || digests.size() != bitmap_.total()) return 0;
  std::uint64_t satisfied = 0;
  for (std::uint64_t index = 0; index < digests.size(); ++index) {
    if (bitmap_.test(index)) continue;
    auto length = store_->chunk_length(digests[index]);
    if (!length.ok() || length.value() != expected_length(index)) continue;
    if (!store_->add_ref(digests[index])) continue;
    bitmap_.set(index);
    digests_.emplace(index, digests[index]);
    ++satisfied;
  }
  return satisfied;
}

std::uint32_t Assembly::expected_length(std::uint64_t index) const {
  return crypto::chunk_length(size_, kDefaultChunkBytes, index);
}

util::Status Assembly::accept(const Chunk& chunk) {
  if (chunk.index >= bitmap_.total())
    return make_error(ErrorCode::kInvalidArgument,
                      "chunk index beyond declared file size");
  if (chunk.synthetic != synthetic_)
    return make_error(ErrorCode::kInvalidArgument,
                      "chunk kind does not match the transfer manifest");
  if (chunk.length != expected_length(chunk.index))
    return make_error(ErrorCode::kInvalidArgument,
                      "chunk length does not match the declared geometry");
  crypto::Digest expected =
      synthetic_ ? synthetic_chunk_digest(checksum_, chunk.index, chunk.length)
                 : chunk_digest(chunk.data);
  if (expected != chunk.digest)
    return make_error(ErrorCode::kInvalidArgument, "chunk digest mismatch");
  if (!synthetic_ && chunk.data.size() != chunk.length)
    return make_error(ErrorCode::kInvalidArgument,
                      "chunk payload shorter than its declared length");
  if (!bitmap_.set(chunk.index))
    return make_error(ErrorCode::kFailedPrecondition, "duplicate chunk");
  if (store_ != nullptr) {
    // Intern into the shared store: a chunk some other file already
    // holds costs nothing but a refcount bump.
    util::Status added =
        synthetic_ ? store_->add_synthetic_chunk(chunk.digest, chunk.length)
                   : store_->add_chunk(chunk.digest, chunk.data);
    if (!added.ok()) return added;
    digests_.emplace(chunk.index, chunk.digest);
    return util::Status::ok_status();
  }
  digests_.emplace(chunk.index, chunk.digest);
  if (!synthetic_) {
    buffered_bytes_ += chunk.data.size();
    buffers_.emplace(chunk.index, chunk.data);
  }
  return util::Status::ok_status();
}

util::Result<uspace::FileBlob> Assembly::finish() {
  if (!bitmap_.complete())
    return make_error(ErrorCode::kFailedPrecondition,
                      "transfer incomplete: " + std::to_string(bitmap_.count()) +
                          "/" + std::to_string(bitmap_.total()) + " chunks");
  if (finished_ != nullptr) return uspace::FileBlob::from_pinned(finished_);
  std::vector<crypto::Digest> digests;
  digests.reserve(digests_.size());
  for (const auto& [index, digest] : digests_) digests.push_back(digest);
  // The verified digests are all the identity check takes.
  if (!synthetic_ && crypto::file_identity(size_, digests) != checksum_)
    return make_error(ErrorCode::kInvalidArgument,
                      "reassembled file does not match its declared identity");
  if (store_ != nullptr) {
    store::BlobManifest manifest;
    manifest.size = size_;
    manifest.checksum = checksum_;
    manifest.synthetic = synthetic_;
    manifest.chunks = std::move(digests);
    // Hand the accumulated references to the pin, which this assembly
    // keeps until it is destroyed, so a retried delivery finds them.
    finished_ = std::make_shared<const store::PinnedBlob>(
        store_, std::move(manifest));
    digests_.clear();
    return uspace::FileBlob::from_pinned(finished_);
  }
  if (synthetic_) return uspace::FileBlob::from_identity(size_, checksum_);
  util::Bytes content;
  content.reserve(size_);
  for (const auto& [index, data] : buffers_)
    content.insert(content.end(), data.begin(), data.end());
  return uspace::FileBlob::from_verified(std::move(content), std::move(digests),
                                         checksum_);
}

}  // namespace unicore::xfer
