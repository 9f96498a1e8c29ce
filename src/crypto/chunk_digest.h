// Per-chunk content digests, shared by the transfer wire (src/xfer)
// and the content-addressed chunk store (src/store), and the file
// identity built from them (uspace::FileBlob::checksum()).
//
// Both layers key chunks by the same SHA-256 digest: the wire verifies
// each chunk against it on accept, and the store interns chunks under
// it. Keeping the computation in one place below both layers is what
// makes chunk-level dedup sound — a chunk that arrives over the wire
// with digest D is byte-identical to the stored chunk filed under D,
// so the receiver may acknowledge it without writing a byte.
//
// A real file's identity is a hash over its size and its chunk digests
// at kFileChunkBytes, the one chunk size of the wire and the store.
// So the digests a sender computes once serve as its manifest,
// its per-chunk digests and its identity, and a receiver that has
// verified every chunk checks the identity over 32 bytes per chunk
// instead of re-reading the file.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace unicore::crypto {

/// Granularity of a real file's identity; also the one chunk size of
/// the transfer wire (xfer::kDefaultChunkBytes) and of the chunk store
/// (store::kDefaultStoreChunkBytes).
constexpr std::uint32_t kFileChunkBytes = 1024 * 1024;

/// Digest of a real chunk: SHA-256 over its payload bytes.
Digest chunk_content_digest(util::ByteView payload);

/// Digest of a synthetic chunk (no payload bytes exist): a
/// domain-separated hash over (file checksum, index, length), tying
/// every piece to the file identity declared at open.
Digest synthetic_chunk_digest(const Digest& file_checksum,
                              std::uint64_t index, std::uint32_t length);

/// Number of chunks a file of `size` bytes splits into at `chunk_bytes`
/// granularity (one empty chunk for an empty file, so open/close still
/// round-trip).
std::uint64_t chunk_count(std::uint64_t size, std::uint32_t chunk_bytes);

/// Byte length of chunk `index` of a `size`-byte file.
std::uint32_t chunk_length(std::uint64_t size, std::uint32_t chunk_bytes,
                           std::uint64_t index);

/// Identity of a real file of `size` bytes whose chunk digests at
/// kFileChunkBytes are `digests` (chunk_count(size, kFileChunkBytes)
/// of them): SHA-256 over the length-prefixed tag
/// "unicore-file-identity", `size` as 8 big-endian bytes, and the
/// digests in order. The tag keeps it apart from synthetic identities.
Digest file_identity(std::uint64_t size, std::span<const Digest> digests);

/// Computes a real file's chunk digests at kFileChunkBytes and its
/// identity from its bytes, fed in pieces of any size: each byte is
/// hashed once.
class FileHasher {
 public:
  void update(util::ByteView bytes);
  /// Closes the last chunk and returns the file's identity; the hasher
  /// must not be fed afterwards.
  Digest finish();
  /// The chunk digests; complete once finish() has run.
  std::vector<Digest>& digests() { return digests_; }

 private:
  Sha256 chunk_;
  std::uint32_t chunk_fill_ = 0;
  std::uint64_t size_ = 0;
  std::vector<Digest> digests_;
};

}  // namespace unicore::crypto
