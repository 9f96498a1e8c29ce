#include "crypto/chunk_digest.h"

#include <algorithm>

namespace unicore::crypto {

Digest chunk_content_digest(util::ByteView payload) {
  return sha256(payload);
}

Digest synthetic_chunk_digest(const Digest& file_checksum,
                              std::uint64_t index, std::uint32_t length) {
  util::ByteWriter w;
  w.str("unicore-xfer-chunk");
  w.raw(file_checksum);
  w.u64(index);
  w.u32(length);
  return sha256(w.bytes());
}

std::uint64_t chunk_count(std::uint64_t size, std::uint32_t chunk_bytes) {
  if (chunk_bytes == 0) return 0;
  if (size == 0) return 1;
  return (size + chunk_bytes - 1) / chunk_bytes;
}

std::uint32_t chunk_length(std::uint64_t size, std::uint32_t chunk_bytes,
                           std::uint64_t index) {
  std::uint64_t offset = index * static_cast<std::uint64_t>(chunk_bytes);
  std::uint64_t remaining = size > offset ? size - offset : 0;
  return static_cast<std::uint32_t>(
      remaining < chunk_bytes ? remaining : chunk_bytes);
}

Digest file_identity(std::uint64_t size, std::span<const Digest> digests) {
  util::ByteWriter header;
  header.str("unicore-file-identity");
  header.u64(size);
  Sha256 hasher;
  hasher.update(header.bytes());
  for (const Digest& digest : digests) hasher.update(digest);
  return hasher.finish();
}

void FileHasher::update(util::ByteView bytes) {
  size_ += bytes.size();
  while (!bytes.empty()) {
    std::size_t take =
        std::min<std::size_t>(bytes.size(), kFileChunkBytes - chunk_fill_);
    chunk_.update(bytes.first(take));
    bytes = bytes.subspan(take);
    chunk_fill_ += static_cast<std::uint32_t>(take);
    if (chunk_fill_ == kFileChunkBytes) {
      digests_.push_back(chunk_.finish());
      chunk_ = Sha256();
      chunk_fill_ = 0;
    }
  }
}

Digest FileHasher::finish() {
  // A partial last chunk closes here, and so does the one empty chunk
  // of an empty file.
  if (chunk_fill_ > 0 || digests_.empty()) digests_.push_back(chunk_.finish());
  return file_identity(size_, digests_);
}

}  // namespace unicore::crypto
