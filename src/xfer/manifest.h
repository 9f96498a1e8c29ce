// Durable transfer state: the manifest describing an inbound bundle,
// the per-chunk records that make chunk delivery idempotent across a
// receiver crash, and the fold that reconstructs half-finished bundles
// from the NJS journal on recovery.
//
// The receiver journals a chunk BEFORE acknowledging it. A crash
// between the append and the ack therefore re-delivers a chunk the
// journal already holds — recovery rebuilds the bitmap from the log,
// the re-delivered copy is answered as a duplicate, and no byte is
// applied twice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/x509.h"
#include "njs/journal.h"
#include "util/bytes.h"
#include "xfer/chunk.h"
#include "xfer/wire.h"

namespace unicore::xfer {

/// Identity of one file inside a durable bundle manifest.
struct BundleFileMeta {
  std::string name;
  std::uint64_t size = 0;
  crypto::Digest checksum{};
  bool synthetic = false;

  void encode(util::ByteWriter& w) const;
  static BundleFileMeta decode(util::ByteReader& r);
};

/// Everything the receiver must remember about an inbound bundle: one
/// journal record covers every file, which is the durable-write
/// amortization that pairs with the wire's single open/close RTT.
struct BundleManifest {
  util::Bytes key;  // 32-byte bundle key (see make_bundle_key)
  ajo::JobToken token = 0;
  crypto::DistinguishedName principal;  // who is allowed to resume it
  std::vector<BundleFileMeta> files;

  void encode(util::ByteWriter& w) const;
  static BundleManifest decode(util::ByteReader& r);
};

/// Journal appenders. Chunk records carry the in-bundle file index and,
/// for real files, the payload bytes (this is a write-ahead log — the
/// bytes must survive the crash, not just the fact of their arrival);
/// synthetic chunks journal geometry only.
void journal_bundle_manifest(njs::Journal& journal,
                             const BundleManifest& manifest);
void journal_bundle_chunk(njs::Journal& journal,
                          const BundleManifest& manifest,
                          std::uint32_t file_index, const Chunk& chunk);
void journal_bundle_done(njs::Journal& journal,
                         const BundleManifest& manifest);
/// The receiver dropped the bundle after its idle timeout: recovery must
/// not rebuild it.
void journal_bundle_expired(njs::Journal& journal,
                            const BundleManifest& manifest);

/// One half-finished bundle folded out of the journal.
struct RecoveredBundle {
  BundleManifest manifest;
  /// (file index, chunk) pairs in journal order, no duplicates.
  std::vector<std::pair<std::uint32_t, Chunk>> chunks;
};

/// Replays the journal's bundle records into the bundles that were
/// open at crash time (kXferBundleDone and kXferBundleExpired erase).
/// Records that fail to decode are skipped, mirroring Journal::recover().
std::vector<RecoveredBundle> recover_bundles(const njs::Journal& journal);

/// Keys of bundles that committed (kXferBundleDone). After a receiver
/// crash these make a re-opened committed bundle answer "every file
/// complete" instead of accepting the bytes a second time. An expired
/// bundle is not among them: its sender starts over.
std::vector<util::Bytes> completed_bundle_keys(const njs::Journal& journal);

}  // namespace unicore::xfer
