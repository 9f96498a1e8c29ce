// Wire framing of the chunked transfer protocol (kXferBundleOpen /
// kXferChunk / kXferBundleClose).
//
// The paper concedes that Uspace-to-Uspace transfer through one
// NJS–NJS message "has disadvantages with respect to transfer rates
// especially for huge data sets" (§5.6). This module defines the
// request bodies of the replacement data plane. A transfer moves a
// bundle of one or more files: one open carries every file's identity
// under a durable key, the payload moves as independently acknowledged
// chunks striped over parallel secure channels, and each file's
// identity (crypto::file_identity) is verified before it becomes
// visible in the target Uspace. A single file is a bundle of one.
//
// Every body starts with a Role byte so the gateway can pick the right
// authentication path (server certificate for NJS–NJS push/pull, user
// certificate for client staging and output pulls) without parsing the
// rest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ajo/services.h"
#include "crypto/chunk_digest.h"
#include "crypto/sha256.h"
#include "uspace/blob.h"
#include "util/bytes.h"

namespace unicore::xfer {

/// The request kinds of the transfer protocol, abstracted from the
/// server layer's RequestKind so this library stays below it.
enum class Op : std::uint8_t {
  kOpen = 1,   // kXferBundleOpen
  kChunk = 2,  // kXferChunk
  kClose = 3,  // kXferBundleClose
};

/// Who is driving the transfer (first byte of every body).
enum class Role : std::uint8_t {
  kPush = 1,        // peer NJS streams files into a job's Uspace
  kPeerPull = 2,    // peer NJS reads dependency files chunk-wise
  kClientPull = 3,  // JMC client fetches job outputs chunk-wise
  kClientPush = 4,  // JPA client stages files into its own job's Uspace
};

/// Does the role authenticate with a peer-server certificate (NJS–NJS
/// traffic) rather than a user certificate (JPA/JMC traffic)?
constexpr bool role_is_server_peer(Role role) {
  return role == Role::kPush || role == Role::kPeerPull;
}
/// Is the role the sending end of a push-style transfer?
constexpr bool role_is_push(Role role) {
  return role == Role::kPush || role == Role::kClientPush;
}

/// Most files one bundle open may carry. Larger trees slice into
/// several bundles (TransferManager::push / pull), keeping open-reply
/// bodies and per-bundle journal records bounded.
constexpr std::uint32_t kMaxBundleFiles = 4096;

/// The one chunk size of the wire: the granularity of a file's identity
/// (crypto/chunk_digest.h), so a transfer sends the digests the file
/// already holds and the receiver checks the identity over them. The
/// u32 chunk-size fields of the opens, their replies and the bundle
/// manifest record always carry it; a decoder fails its reader on any
/// other value.
constexpr std::uint32_t kDefaultChunkBytes = crypto::kFileChunkBytes;

/// Writes the u32 chunk-size field: always kDefaultChunkBytes.
void write_chunk_bytes(util::ByteWriter& w);
/// Reads the u32 chunk-size field and fails `r` unless it names
/// kDefaultChunkBytes.
void read_chunk_bytes(util::ByteReader& r);

/// Number of chunks a file of `size` bytes splits into (one empty
/// chunk for an empty file, so open/close still round-trip).
/// Forwards to crypto::chunk_count — the store counts the same way.
std::uint64_t chunk_count(std::uint64_t size,
                          std::uint32_t chunk_bytes = kDefaultChunkBytes);

/// One chunk in flight. Synthetic chunks carry no payload bytes in
/// memory (the wire still charges `length` bytes of padding, so the
/// simulated network prices them realistically).
struct Chunk {
  std::uint64_t index = 0;
  std::uint32_t length = 0;
  bool synthetic = false;
  crypto::Digest digest{};
  util::Bytes data;  // empty for synthetic chunks

  void encode(util::ByteWriter& w) const;
  static Chunk decode(util::ByteReader& r);
};

/// Digest of one chunk. Real chunks hash their payload; synthetic
/// chunks hash (file checksum, index, length) under a domain-separated
/// header, tying every piece to the file identity declared at open.
/// Both forward to crypto/chunk_digest.h — the content-addressed store
/// keys chunks by the very same digests, which is what makes the
/// receiver's dedup-ack sound.
crypto::Digest chunk_digest(util::ByteView payload);
crypto::Digest synthetic_chunk_digest(const crypto::Digest& file_checksum,
                                      std::uint64_t index,
                                      std::uint32_t length);

/// Cuts chunk `index` out of `blob`. The digest is filled in: a real
/// blob's is the one it holds (FileBlob::held_digests), which the
/// receiver checks against the bytes. `chunk_bytes` must be
/// kDefaultChunkBytes; any other value throws std::invalid_argument.
Chunk make_chunk(const uspace::FileBlob& blob, std::uint64_t index,
                 std::uint32_t chunk_bytes = kDefaultChunkBytes);

/// A run of already-applied chunks `[first, first + count)`, the
/// resume state returned by a push open.
struct ChunkRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;

  bool operator==(const ChunkRange&) const = default;
};

void encode_ranges(util::ByteWriter& w, const std::vector<ChunkRange>& ranges);
std::vector<ChunkRange> decode_ranges(util::ByteReader& r);

// ---- kXferBundleOpen (push) ------------------------------------------------
//
// One open carries the manifests of up to kMaxBundleFiles files. The
// reply's per-file have-ranges let the receiver's chunk store dedup the
// whole batch in a single round trip, and all files share one windowed
// credit loop, one durable journal manifest, and one close — which is
// what amortizes open/close round trips away for small-file trees
// (docs/DATA.md §3).

/// The manifest of one file inside a bundle open.
struct BundleFileEntry {
  std::string name;
  std::uint64_t size = 0;
  crypto::Digest checksum{};
  bool synthetic = false;
  /// Per-chunk digests (may be empty). A receiver with a chunk store
  /// matches them against chunks it already holds and reports the hits
  /// in the open reply, so the sender never transmits a byte the
  /// receiver can dedup.
  std::vector<crypto::Digest> digests;

  void encode(util::ByteWriter& w) const;
  static BundleFileEntry decode(util::ByteReader& r);
};

struct BundleOpenRequest {
  Role role = Role::kPush;  // kPush or kClientPush
  util::Bytes key;          // 32-byte bundle key (make_bundle_key)
  ajo::JobToken token = 0;
  std::vector<BundleFileEntry> files;

  util::Bytes encode() const;  // includes the role byte
  static BundleOpenRequest decode(util::ByteReader& r);  // after the role byte
};

/// Resume/dedup state of one file, aligned with the request's files.
struct BundleFileState {
  bool complete = false;  // already delivered (dedup or resume)
  std::vector<ChunkRange> have;

  void encode(util::ByteWriter& w) const;
  static BundleFileState decode(util::ByteReader& r);
};

struct BundleOpenReply {
  /// 0 when the bundle was already committed (tombstone) — every file
  /// reads complete and there is nothing left to send.
  std::uint64_t transfer_id = 0;
  std::uint32_t credit = 0;  // one shared window across all files
  std::vector<BundleFileState> files;

  util::Bytes encode() const;
  static BundleOpenReply decode(util::ByteReader& r);
};

// ---- kXferChunk ------------------------------------------------------------

/// One pushed chunk; file_index selects the bundle entry.
struct BundleChunkRequest {
  Role role = Role::kPush;  // kPush or kClientPush
  std::uint64_t transfer_id = 0;
  std::uint32_t file_index = 0;
  Chunk chunk;

  util::Bytes encode() const;
  /// Decodes the rest of the body once the service has read the role
  /// byte and the transfer id (it routes on the id first).
  static BundleChunkRequest decode(std::uint64_t transfer_id,
                                   util::ByteReader& r);
};

struct BundleChunkReply {
  bool applied = false;  // false: duplicate, journaled earlier
  std::uint32_t credit = 0;

  util::Bytes encode() const;
  static BundleChunkReply decode(util::ByteReader& r);
};

/// One pulled chunk request. The reply is a bare Chunk::encode body.
struct BundlePullChunkRequest {
  Role role = Role::kPeerPull;
  std::uint64_t transfer_id = 0;
  std::uint32_t file_index = 0;
  std::uint64_t index = 0;

  util::Bytes encode() const;
  static BundlePullChunkRequest decode(Role role, std::uint64_t transfer_id,
                                       util::ByteReader& r);
};

// ---- kXferBundleOpen (pull) ------------------------------------------------

/// Pull-side open: name the files, get back each one's identity AND its
/// chunk digests, letting the puller's chunk store satisfy warm chunks
/// locally before requesting anything. A one-file open asking for it
/// gets a small file back inline instead — one round trip, no chunk
/// traffic, nothing to close (the stdout/stderr fast path).
struct BundlePullOpenRequest {
  Role role = Role::kPeerPull;  // kPeerPull or kClientPull
  ajo::JobToken token = 0;
  /// A lone file at or below this size comes back inline. Opens of
  /// several files never inline.
  std::uint32_t inline_limit = 0;
  std::vector<std::string> names;

  util::Bytes encode() const;
  static BundlePullOpenRequest decode(Role role, util::ByteReader& r);
};

struct BundlePullFileInfo {
  std::uint64_t size = 0;
  crypto::Digest checksum{};
  bool synthetic = false;
  /// Chunk digests — the pull-path manifest.
  std::vector<crypto::Digest> digests;

  void encode(util::ByteWriter& w) const;
  static BundlePullFileInfo decode(util::ByteReader& r);
};

struct BundlePullOpenReply {
  /// The lone requested file, when the source answered inline; the
  /// fields below are then unset.
  std::optional<uspace::FileBlob> inline_blob;
  std::uint64_t transfer_id = 0;
  std::vector<BundlePullFileInfo> files;  // aligned with request names

  util::Bytes encode() const;
  static BundlePullOpenReply decode(util::ByteReader& r);
};

// ---- kXferBundleClose ------------------------------------------------------

struct BundleCloseRequest {
  Role role = Role::kPush;
  std::uint64_t transfer_id = 0;
  util::Bytes key;  // push roles only: identifies the bundle across crashes

  util::Bytes encode() const;
  static BundleCloseRequest decode(Role role, util::ByteReader& r);
};
// Close replies carry no payload; errors travel in the envelope.

/// The durable identity of one bundle: SHA-256 over (source site,
/// target token, each file's name/checksum/size). Stable across
/// retries, reconnects, and sender or receiver crashes — it is what
/// lets a resumed transfer find its half-finished manifest instead of
/// starting over.
util::Bytes make_bundle_key(const std::string& source_usite,
                            ajo::JobToken token,
                            const std::vector<BundleFileEntry>& files);

}  // namespace unicore::xfer
