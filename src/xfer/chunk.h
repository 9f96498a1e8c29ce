// Chunk bookkeeping: which pieces of a transfer have arrived, and how
// they fold back into a FileBlob whose checksum must equal the one
// declared at open.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "store/chunk_store.h"
#include "uspace/blob.h"
#include "util/result.h"
#include "xfer/wire.h"

namespace unicore::xfer {

/// Presence bitmap over the chunks of one transfer, with the
/// run-length encoding used by the push open reply (resume state).
class ChunkBitmap {
 public:
  ChunkBitmap() = default;
  explicit ChunkBitmap(std::uint64_t total) : have_(total, false) {}

  std::uint64_t total() const { return have_.size(); }
  std::uint64_t count() const { return count_; }
  bool complete() const { return count_ == have_.size(); }
  bool test(std::uint64_t index) const {
    return index < have_.size() && have_[index];
  }
  /// Returns false when the chunk was already present.
  bool set(std::uint64_t index);

  std::vector<ChunkRange> ranges() const;
  void apply(const std::vector<ChunkRange>& ranges);
  /// Indices not yet present, in order.
  std::vector<std::uint64_t> missing() const;

 private:
  std::vector<bool> have_;
  std::uint64_t count_ = 0;
};

/// Reassembles the chunks of one incoming transfer. Verifies each
/// chunk digest on accept and the whole-file identity on finish, over
/// the chunk digests already verified, without reading a byte again;
/// synthetic transfers buffer no payload bytes (their chunk digests
/// already bind every piece to the declared file checksum).
///
/// With a chunk store attached, accepted chunks go straight into the
/// store (one reference each) instead of per-transfer buffers, and the
/// sender's open-time digest manifest can satisfy chunks the store
/// already holds without a byte crossing the wire. finish() hands the
/// accumulated references to the resulting blob's pin; an abandoned
/// assembly releases them on destruction, so no refcount ever leaks.
class Assembly {
 public:
  Assembly() = default;
  Assembly(std::uint64_t size, const crypto::Digest& checksum, bool synthetic);
  ~Assembly();

  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;
  Assembly(Assembly&& other) noexcept;
  Assembly& operator=(Assembly&& other) noexcept;

  std::uint64_t size() const { return size_; }
  const crypto::Digest& checksum() const { return checksum_; }
  bool synthetic() const { return synthetic_; }
  ChunkBitmap& bitmap() { return bitmap_; }
  const ChunkBitmap& bitmap() const { return bitmap_; }
  bool complete() const { return bitmap_.complete(); }
  /// Payload bytes currently buffered (the receive-window currency).
  std::uint64_t buffered_bytes() const { return buffered_bytes_; }

  /// Expected byte length of chunk `index`.
  std::uint32_t expected_length(std::uint64_t index) const;

  /// Switches the assembly to store mode: accepted chunks are interned
  /// into `chunk_store` instead of buffered, and finish() produces a
  /// store-backed blob. Must be called before any chunk is accepted.
  void attach_store(std::shared_ptr<store::ChunkStore> chunk_store);
  bool has_store() const { return store_ != nullptr; }

  /// Store mode only: marks every still-missing chunk whose digest the
  /// store already holds (at the right length) as present, taking one
  /// reference each — the wire-level dedup that lets a receiver ack
  /// chunks at open time. `digests` is the sender's manifest; one of
  /// another length is ignored. Returns the number of chunks satisfied.
  std::uint64_t satisfy_from_store(const std::vector<crypto::Digest>& digests);

  /// Verifies and stores one chunk. Duplicate chunks are rejected with
  /// kFailedPrecondition (callers normally check the bitmap first);
  /// corrupt or misshapen chunks with kInvalidArgument.
  util::Status accept(const Chunk& chunk);

  /// Folds the complete set back into a blob and verifies the identity
  /// declared at open. Every chunk digest here was checked against its
  /// bytes on accept, or is the key of the store's own chunk, so the
  /// identity is checked over those digests alone. In store mode the
  /// chunk references move into one pin, which the
  /// assembly shares with every blob it returns: a finish after a failed
  /// delivery returns the same blob, and the references go back once,
  /// when the last holder drops the pin. A failed finish keeps them until
  /// the assembly is destroyed.
  util::Result<uspace::FileBlob> finish();

 private:
  void release_refs();

  std::uint64_t size_ = 0;
  crypto::Digest checksum_{};
  bool synthetic_ = false;
  ChunkBitmap bitmap_;
  std::map<std::uint64_t, util::Bytes> buffers_;  // real, without a store
  std::uint64_t buffered_bytes_ = 0;
  std::shared_ptr<store::ChunkStore> store_;
  // The digest of every present chunk; in store mode each holds one
  // store reference until finish() moves them all into finished_.
  std::map<std::uint64_t, crypto::Digest> digests_;
  std::shared_ptr<const store::PinnedBlob> finished_;
};

}  // namespace unicore::xfer
