// Content-addressed chunk store — the Xspace blob engine.
//
// ROADMAP: `unicore::uspace` began as a purely in-memory virtual FS;
// this store is what lets the §4 Uspace/Xspace abstraction hold
// millions of files. Every stored file is a *manifest* of chunk
// digests; the chunks themselves live once, keyed by the same SHA-256
// per-chunk digests the transfer wire computes (crypto/chunk_digest.h),
// refcounted across files and across Uspaces:
//
//   - writing a file whose chunks already exist stores zero new bytes
//     (chunk-level dedup — the store only bumps refcounts);
//   - a transfer receiver can acknowledge an incoming chunk whose
//     digest is already present without writing it, and can satisfy
//     whole ranges at open time from the sender's digest manifest, so
//     a dedup-warm restage moves zero payload bytes;
//   - deleting the last file referencing a chunk reclaims its physical
//     bytes exactly (refcount-zero free);
//   - a resident-bytes budget spills cold chunks to a pluggable
//     SpillBackend (disk tier) and faults them back on read, checking
//     each one against its digest and length first.
//
// Quota semantics: Volume/Uspace quotas keep charging *logical* bytes
// (what the user sees); the store tracks *physical* bytes (what the
// disks hold after dedup). The two are linked only through manifests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/chunk_digest.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::store {

/// The one chunk size of the store: the granularity of a file's
/// identity, which is also the transfer wire's one chunk size, so files
/// staged over the rails and files written locally dedup against each
/// other and share their digests.
constexpr std::uint32_t kDefaultStoreChunkBytes = crypto::kFileChunkBytes;

/// The cold tier: where evicted chunk payloads go. Implementations
/// model a disk (or object store); the in-memory one backs tests and
/// benches. All byte accounting for the tier lives in the ChunkStore —
/// a backend only moves payloads.
class SpillBackend {
 public:
  virtual ~SpillBackend() = default;
  virtual util::Status write(const crypto::Digest& digest,
                             const util::Bytes& data) = 0;
  virtual util::Result<util::Bytes> read(const crypto::Digest& digest) = 0;
  virtual void erase(const crypto::Digest& digest) = 0;
};

/// Spill tier in process memory, outside the store's resident budget —
/// the moral equivalent of JournalStore: it models a disk that
/// survives an NJS restart.
class MemorySpillBackend : public SpillBackend {
 public:
  util::Status write(const crypto::Digest& digest,
                     const util::Bytes& data) override;
  util::Result<util::Bytes> read(const crypto::Digest& digest) override;
  void erase(const crypto::Digest& digest) override;

  std::size_t chunks() const { return spilled_.size(); }

 private:
  std::map<crypto::Digest, util::Bytes> spilled_;
};

/// Manifest of one stored file: its identity plus the ordered chunk
/// digests at kDefaultStoreChunkBytes. Equal manifests <=> equal
/// logical content.
struct BlobManifest {
  std::uint64_t size = 0;
  crypto::Digest checksum{};  // whole-file identity
  bool synthetic = false;
  // chunk_count(size, kDefaultStoreChunkBytes) entries
  std::vector<crypto::Digest> chunks;

  std::uint32_t length_of(std::uint64_t index) const {
    return crypto::chunk_length(size, kDefaultStoreChunkBytes, index);
  }
};

/// Point-in-time accounting of the store (also mirrored into gauges).
struct StoreStats {
  std::uint64_t chunks = 0;          // distinct chunks held
  std::uint64_t total_refs = 0;      // sum of refcounts
  std::uint64_t physical_bytes = 0;  // resident + spilled payload bytes
  std::uint64_t resident_bytes = 0;  // payload bytes in the hot tier
  std::uint64_t spilled_bytes = 0;   // payload bytes in the cold tier
  std::uint64_t logical_bytes = 0;   // sum over refs (what dedup saved from)
  // Monotonic event counters:
  std::uint64_t dedup_hits = 0;         // refs satisfied by an existing chunk
  std::uint64_t dedup_bytes_saved = 0;  // payload bytes those refs did not add
  std::uint64_t spills = 0;             // chunk evictions to the cold tier
  std::uint64_t faults = 0;             // chunk loads back from the cold tier
  std::uint64_t reclaimed_chunks = 0;   // chunks freed at refcount zero
  std::uint64_t reclaimed_bytes = 0;    // physical bytes those frees returned
};

/// The store proper. Single-threaded like the rest of the simulated
/// Usite (all mutation happens on the engine thread).
class ChunkStore {
 public:
  struct Config {
    /// Resident (hot-tier) payload budget. 0 = unlimited. Exceeding it
    /// evicts the coldest chunks into the spill backend; without a
    /// backend the budget is ignored (nowhere to spill to).
    std::uint64_t resident_budget_bytes = 0;
  };

  ChunkStore() = default;
  explicit ChunkStore(Config config) : config_(config) {}

  void set_spill_backend(std::shared_ptr<SpillBackend> backend) {
    spill_ = std::move(backend);
    maybe_evict();
  }
  void set_resident_budget(std::uint64_t bytes) {
    config_.resident_budget_bytes = bytes;
    maybe_evict();
  }

  /// Mirrors occupancy gauges and event counters into `registry`
  /// (labels: site). Updated on every mutation.
  void set_metrics(std::shared_ptr<obs::MetricsRegistry> registry,
                   std::string site);

  bool contains(const crypto::Digest& digest) const {
    return chunks_.count(digest) != 0;
  }
  /// Refcount of a chunk; 0 when absent (test introspection).
  std::uint64_t refcount(const crypto::Digest& digest) const;

  /// Adds one reference to the chunk keyed by `digest`, storing
  /// `data` when the chunk is new. `digest` must be
  /// crypto::chunk_content_digest(data) — callers on the wire path have
  /// already verified it; local writers compute it from the data.
  /// A present digest is a dedup hit: the payload is not written,
  /// except over a spilled copy. Fault-back refuses a cold-tier copy
  /// that fails its digest, so bytes checked against `digest` here
  /// become the resident copy instead, repairing the chunk; bytes that
  /// fail the check are refused and change nothing.
  util::Status add_chunk(const crypto::Digest& digest, util::ByteView data);

  /// Synthetic twin of add_chunk: the chunk is identified (digest,
  /// length) but carries no payload bytes, so it never occupies either
  /// tier. Dedup and refcounting work exactly like real chunks.
  util::Status add_synthetic_chunk(const crypto::Digest& digest,
                                   std::uint32_t length);

  /// Adds one reference to an *already present* chunk (the dedup path
  /// taken when only the digest is known — e.g. a transfer open
  /// carrying the sender's digest manifest). Returns false and does
  /// nothing when the chunk is absent.
  bool add_ref(const crypto::Digest& digest);

  /// Drops one reference; the last one frees the chunk and reclaims
  /// its physical bytes (from whichever tier holds it).
  void release(const crypto::Digest& digest);

  /// Payload bytes of a real chunk, faulting it back from the spill
  /// tier when evicted. kNotFound for absent chunks,
  /// kFailedPrecondition for synthetic ones (they have no bytes),
  /// kInternal when the spill tier is gone or returns bytes that do not
  /// match the digest and length (the chunk then stays spilled). So
  /// every byte read returns is the chunk filed under `digest`.
  util::Result<util::Bytes> read(const crypto::Digest& digest);

  /// Declared byte length of a chunk (real or synthetic).
  util::Result<std::uint32_t> chunk_length(const crypto::Digest& digest) const;

  StoreStats stats() const { return stats_; }

 private:
  struct ChunkRec {
    std::uint32_t length = 0;
    bool synthetic = false;
    std::uint64_t refs = 0;
    bool spilled = false;
    util::Bytes data;          // resident payload; empty if spilled/synthetic
    std::uint64_t lru_seq = 0; // key into lru_ while resident
  };

  void touch(const crypto::Digest& digest, ChunkRec& rec);
  void maybe_evict();
  void count_dedup(const ChunkRec& rec);
  void refresh_gauges();
  /// `handle`, resolved as series `name`{site} on first use. Requires a
  /// registry.
  obs::Counter& series(obs::Counter*& handle, std::string_view name);
  obs::Gauge& series(obs::Gauge*& handle, std::string_view name);

  Config config_;
  std::shared_ptr<SpillBackend> spill_;
  std::map<crypto::Digest, ChunkRec> chunks_;
  std::map<std::uint64_t, crypto::Digest> lru_;  // seq -> resident real chunk
  std::uint64_t next_seq_ = 1;
  StoreStats stats_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::string site_;
  /// Series handles, dropped by set_metrics.
  struct Series {
    obs::Counter* dedup_hits = nullptr;
    obs::Counter* dedup_bytes_saved = nullptr;
    obs::Counter* reclaimed_chunks = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* spills = nullptr;
    obs::Gauge* chunks = nullptr;
    obs::Gauge* physical_bytes = nullptr;
    obs::Gauge* resident_bytes = nullptr;
    obs::Gauge* spilled_bytes = nullptr;
    obs::Gauge* logical_bytes = nullptr;
    obs::Gauge* total_refs = nullptr;
  } series_;
};

/// RAII pin over one manifest's chunks: holds one reference per entry
/// and releases them all on destruction. This is how files own their
/// chunks — a Uspace file is a shared_ptr chain ending in one of these,
/// so dropping the last file reference (overwrite, remove, storage
/// reap) reclaims physical bytes without any explicit bookkeeping.
class PinnedBlob {
 public:
  /// Takes over one already-added reference per manifest chunk.
  PinnedBlob(std::shared_ptr<ChunkStore> chunk_store, BlobManifest manifest)
      : store_(std::move(chunk_store)), manifest_(std::move(manifest)) {}
  ~PinnedBlob();

  PinnedBlob(const PinnedBlob&) = delete;
  PinnedBlob& operator=(const PinnedBlob&) = delete;

  const BlobManifest& manifest() const { return manifest_; }
  const std::shared_ptr<ChunkStore>& chunk_store() const { return store_; }

  /// Payload of chunk `index` (faults it back when spilled).
  util::Result<util::Bytes> chunk(std::uint64_t index) const;

  /// Copies `[offset, offset+length)` of the logical file into `out`
  /// (appending), touching one chunk at a time — the whole file is
  /// never resident unless the caller asks for all of it.
  util::Status read_range(std::uint64_t offset, std::uint64_t length,
                          util::Bytes& out) const;

 private:
  std::shared_ptr<ChunkStore> store_;
  BlobManifest manifest_;
};

/// Chunks `content` at `chunk_bytes`, which must be
/// kDefaultStoreChunkBytes (kInvalidArgument otherwise), interns every
/// chunk (dedup-aware) and returns the pinned manifest. `checksum` is
/// the whole-file identity recorded in the manifest. `digests`, when the
/// caller holds them, are the chunk digests computed from these very
/// bytes (FileBlob::held_digests) and key the chunks without a second
/// hash; otherwise each chunk is hashed here.
util::Result<std::shared_ptr<const PinnedBlob>> intern_bytes(
    std::shared_ptr<ChunkStore> chunk_store, util::ByteView content,
    const crypto::Digest& checksum, std::uint32_t chunk_bytes,
    std::span<const crypto::Digest> digests = {});

/// Interns a synthetic file of `size` identified bytes: every chunk is
/// a zero-footprint synthetic record keyed by its synthetic digest.
/// `chunk_bytes` must be kDefaultStoreChunkBytes, as for intern_bytes.
util::Result<std::shared_ptr<const PinnedBlob>> intern_synthetic(
    std::shared_ptr<ChunkStore> chunk_store, std::uint64_t size,
    const crypto::Digest& checksum, std::uint32_t chunk_bytes);

}  // namespace unicore::store
