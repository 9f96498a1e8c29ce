#include "uspace/blob.h"

#include "crypto/chunk_digest.h"

namespace unicore::uspace {

FileBlob FileBlob::from_bytes(util::Bytes content) {
  crypto::FileHasher hasher;
  hasher.update(content);
  crypto::Digest identity = hasher.finish();
  return from_verified(std::move(content), std::move(hasher.digests()),
                       identity);
}

FileBlob FileBlob::from_verified(util::Bytes content,
                                 std::vector<crypto::Digest> digests,
                                 const crypto::Digest& identity) {
  FileBlob blob;
  blob.size_ = content.size();
  blob.checksum_ = identity;
  blob.content_ = std::move(content);
  blob.digests_ =
      std::make_shared<const std::vector<crypto::Digest>>(std::move(digests));
  return blob;
}

FileBlob FileBlob::from_string(std::string_view content) {
  return from_bytes(util::to_bytes(content));
}

FileBlob FileBlob::synthetic(std::uint64_t size, std::uint64_t seed) {
  FileBlob blob;
  blob.size_ = size;
  // Identity of a synthetic file is a hash over its (seed, size) header,
  // domain-separated from real content hashes.
  util::ByteWriter w;
  w.str("unicore-synthetic-file");
  w.u64(seed);
  w.u64(size);
  blob.checksum_ = crypto::sha256(w.bytes());
  return blob;
}

FileBlob FileBlob::from_identity(std::uint64_t size,
                                 const crypto::Digest& checksum) {
  FileBlob blob;
  blob.size_ = size;
  blob.checksum_ = checksum;
  return blob;
}

FileBlob FileBlob::from_pinned(
    std::shared_ptr<const store::PinnedBlob> pinned) {
  FileBlob blob;
  blob.size_ = pinned->manifest().size;
  blob.checksum_ = pinned->manifest().checksum;
  blob.stored_ = std::move(pinned);
  return blob;
}

util::Status FileBlob::read_range(std::uint64_t offset, std::uint64_t length,
                                  util::Bytes& out) const {
  if (offset + length > size_)
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "read beyond the end of the file");
  if (stored_ != nullptr && !stored_->manifest().synthetic)
    return stored_->read_range(offset, length, out);
  if (!content_)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "synthetic blob has no bytes to read");
  out.insert(out.end(),
             content_->begin() + static_cast<std::ptrdiff_t>(offset),
             content_->begin() + static_cast<std::ptrdiff_t>(offset + length));
  return util::Status::ok_status();
}

std::span<const crypto::Digest> FileBlob::held_digests() const {
  if (stored_ != nullptr) return stored_->manifest().chunks;
  if (digests_ != nullptr) return *digests_;
  return {};
}

std::vector<crypto::Digest> FileBlob::chunk_digests() const {
  std::span<const crypto::Digest> held = held_digests();
  if (!held.empty()) return {held.begin(), held.end()};
  // Only an inline synthetic blob holds none: its chunks are named by
  // its identity.
  std::uint64_t count = crypto::chunk_count(size_, crypto::kFileChunkBytes);
  std::vector<crypto::Digest> digests;
  digests.reserve(count);
  for (std::uint64_t index = 0; index < count; ++index)
    digests.push_back(crypto::synthetic_chunk_digest(
        checksum_, index,
        crypto::chunk_length(size_, crypto::kFileChunkBytes, index)));
  return digests;
}

void FileBlob::encode(util::ByteWriter& w) const {
  w.boolean(is_synthetic());
  w.u64(size_);
  w.raw(checksum_);
  if (content_) {
    w.blob(*content_);
  } else if (stored_ != nullptr && !stored_->manifest().synthetic) {
    // Stored real content crosses the wire as real bytes, one chunk
    // resident at a time. A chunk the store cannot produce still keeps
    // the framing: its zeros fail the receiver's identity check.
    w.varint(size_);
    const store::BlobManifest& manifest = stored_->manifest();
    for (std::uint64_t i = 0; i < manifest.chunks.size(); ++i) {
      auto piece = stored_->chunk(i);
      if (piece.ok())
        w.raw(piece.value());
      else
        w.pad(manifest.length_of(i));
    }
  } else {
    // A synthetic blob still costs its logical size on the wire — the
    // simulated network charges by message length, so transfers of
    // synthetic files must not be unrealistically cheap. The padding is
    // skipped (not stored) on decode.
    w.pad(static_cast<std::size_t>(size_));
  }
}

FileBlob FileBlob::decode(util::ByteReader& r) {
  bool synthetic = r.boolean();
  std::uint64_t size = r.u64();
  crypto::Digest checksum = r.fixed<32>();
  if (synthetic) {
    r.skip(static_cast<std::size_t>(size));
    return from_identity(size, checksum);
  }
  // Real content must be the file it claims to be: the identity is
  // recomputed from the bytes, never copied from the wire.
  FileBlob blob = from_bytes(r.blob());
  if (blob.size_ != size || blob.checksum_ != checksum)
    r.fail(util::make_error(util::ErrorCode::kInvalidArgument,
                            "FileBlob: content does not match its identity"));
  return blob;
}

void encode_staged(util::ByteWriter& w, const StagedFiles& files) {
  w.varint(files.size());
  for (const auto& [name, blob] : files) {
    w.str(name);
    blob.encode(w);
  }
}

StagedFiles decode_staged(util::ByteReader& r) {
  std::uint64_t n = r.count();
  StagedFiles files;
  files.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.str();
    files.emplace_back(std::move(name), FileBlob::decode(r));
  }
  return files;
}

std::shared_ptr<const FileBlob> intern_blob(
    const std::shared_ptr<store::ChunkStore>& chunk_store,
    std::shared_ptr<const FileBlob> blob) {
  if (chunk_store == nullptr || blob == nullptr || blob->is_stored())
    return blob;
  constexpr std::uint32_t kChunkBytes = store::kDefaultStoreChunkBytes;
  util::Result<std::shared_ptr<const store::PinnedBlob>> pinned =
      blob->bytes() != nullptr
          ? store::intern_bytes(chunk_store, *blob->bytes(), blob->checksum(),
                                kChunkBytes, blob->held_digests())
          : store::intern_synthetic(chunk_store, blob->size(),
                                    blob->checksum(), kChunkBytes);
  if (!pinned.ok()) return blob;
  return std::make_shared<const FileBlob>(
      FileBlob::from_pinned(std::move(pinned).value()));
}

}  // namespace unicore::uspace
