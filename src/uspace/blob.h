// File content representation for the simulated file spaces.
//
// Small files (sources, scripts, stdout) carry real bytes; large
// workload files are *synthetic* — identified by (seed, size) with a
// deterministic checksum — so benches can stage multi-gigabyte files
// without allocating them. Both kinds hash stably, which is what the
// data-integrity invariants (import → transfer → export preserves
// content) are tested against.
//
// A real file's identity is crypto::file_identity over its size and its
// chunk digests at crypto::kFileChunkBytes. A blob computes both in the
// one pass that reads its bytes and keeps the digests, so a transfer,
// the chunk store and the receiver's final check reuse them instead of
// hashing the content again.
//
// A third backing exists on sites with a content-addressed store
// (store/chunk_store.h): a *stored* blob holds no bytes of its own,
// only a pinned manifest of chunk digests. Its chunks are shared with
// every other file that has equal pieces, and dropping the last
// FileBlob reference releases the pins — overwrite, delete, and
// storage reap reclaim physical bytes with no extra bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "store/chunk_store.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::xfer {
class Assembly;
}

namespace unicore::uspace {

class FileBlob {
 public:
  FileBlob() = default;

  /// Real content; hashes each byte once, into its chunk digests and
  /// its identity.
  static FileBlob from_bytes(util::Bytes content);
  static FileBlob from_string(std::string_view content);
  /// A file of `size` bytes whose content is only identified, not stored.
  static FileBlob synthetic(std::uint64_t size, std::uint64_t seed);
  /// Reconstructs a synthetic blob from its identity (size, checksum) —
  /// what a chunked transfer reassembles after moving a synthetic file
  /// piecewise (the per-chunk digests tie each piece to this identity).
  static FileBlob from_identity(std::uint64_t size,
                                const crypto::Digest& checksum);
  /// A blob backed by a pinned store manifest: the content lives in the
  /// chunk store (deduped, possibly spilled), the blob owns one pin.
  static FileBlob from_pinned(std::shared_ptr<const store::PinnedBlob> pinned);

  std::uint64_t size() const { return size_; }
  bool is_synthetic() const {
    return !content_.has_value() &&
           (stored_ == nullptr || stored_->manifest().synthetic);
  }
  /// True when the content is held by a chunk store manifest rather than
  /// inline bytes.
  bool is_stored() const { return stored_ != nullptr; }
  const std::shared_ptr<const store::PinnedBlob>& pinned() const {
    return stored_;
  }

  /// Real inline content; nullptr for synthetic and stored blobs (read
  /// stored content chunk-wise via read_range / pinned()).
  const util::Bytes* bytes() const {
    return content_ ? &*content_ : nullptr;
  }

  /// Copies `[offset, offset+length)` of the content into `out`
  /// (appending). For stored blobs this walks one chunk at a time —
  /// the whole file is never materialised. Synthetic blobs have no
  /// bytes to read (kFailedPrecondition).
  util::Status read_range(std::uint64_t offset, std::uint64_t length,
                          util::Bytes& out) const;

  /// The chunk digests this blob already holds: inline real content's,
  /// or a stored blob's manifest. Empty for inline synthetic blobs.
  std::span<const crypto::Digest> held_digests() const;

  /// Per-chunk digests of this blob — exactly what the transfer wire
  /// computes per chunk, so a receiver can match incoming chunks against
  /// its store. Held digests are copied; an inline synthetic blob's are
  /// derived from its identity.
  std::vector<crypto::Digest> chunk_digests() const;

  /// Content identity: equal checksums <=> equal logical content.
  const crypto::Digest& checksum() const { return checksum_; }

  bool operator==(const FileBlob& other) const {
    return size_ == other.size_ && checksum_ == other.checksum_;
  }

  /// Wire encoding (synthetic blobs stay synthetic across transfers;
  /// stored blobs encode as real content, chunk by chunk). A stored
  /// chunk that cannot be read encodes as zeros of its length, which
  /// the decoder refuses.
  void encode(util::ByteWriter& w) const;
  /// Real content whose size or identity differs from the one declared
  /// with it fails the reader.
  static FileBlob decode(util::ByteReader& r);

 private:
  // The transfer receiver verifies every chunk against its digest as it
  // arrives and the identity over those digests at the end; it hands
  // both over instead of having from_bytes hash the bytes again.
  friend class xfer::Assembly;
  static FileBlob from_verified(util::Bytes content,
                                std::vector<crypto::Digest> digests,
                                const crypto::Digest& identity);

  std::uint64_t size_ = 0;
  crypto::Digest checksum_{};
  std::optional<util::Bytes> content_;
  // Inline real content: its chunk digests at crypto::kFileChunkBytes,
  // immutable and shared between copies.
  std::shared_ptr<const std::vector<crypto::Digest>> digests_;
  std::shared_ptr<const store::PinnedBlob> stored_;
};

/// Files that travel with a job, in a forwarded consignment and in its
/// journal record: a count, then each name and blob.
using StagedFiles = std::vector<std::pair<std::string, FileBlob>>;
void encode_staged(util::ByteWriter& w, const StagedFiles& files);
StagedFiles decode_staged(util::ByteReader& r);

/// Interns `blob` into `chunk_store` and returns a store-backed
/// equivalent (same size, same checksum): inline content is chunked and
/// deduped, synthetic identities get zero-footprint synthetic chunks.
/// Already-stored blobs (and failures) pass through unchanged.
std::shared_ptr<const FileBlob> intern_blob(
    const std::shared_ptr<store::ChunkStore>& chunk_store,
    std::shared_ptr<const FileBlob> blob);

}  // namespace unicore::uspace
