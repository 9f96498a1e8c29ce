#include "xfer/manifest.h"

#include <map>
#include <set>
#include <utility>

namespace unicore::xfer {

void BundleFileMeta::encode(util::ByteWriter& w) const {
  w.str(name);
  w.u64(size);
  w.raw(checksum);
  w.boolean(synthetic);
}

BundleFileMeta BundleFileMeta::decode(util::ByteReader& r) {
  BundleFileMeta meta;
  meta.name = r.str();
  meta.size = r.u64();
  meta.checksum = r.fixed<32>();
  meta.synthetic = r.boolean();
  return meta;
}

void BundleManifest::encode(util::ByteWriter& w) const {
  w.blob(key);
  w.u64(token);
  write_chunk_bytes(w);
  principal.encode(w);
  w.list(files);
}

BundleManifest BundleManifest::decode(util::ByteReader& r) {
  BundleManifest manifest;
  manifest.key = r.blob();
  manifest.token = r.u64();
  read_chunk_bytes(r);
  manifest.principal = crypto::DistinguishedName::decode(r);
  manifest.files = r.list<BundleFileMeta>();
  return manifest;
}

void journal_bundle_manifest(njs::Journal& journal,
                             const BundleManifest& manifest) {
  util::ByteWriter w;
  manifest.encode(w);
  journal.append({njs::JournalRecordType::kXferBundleManifest, manifest.token,
                  w.take()});
}

void journal_bundle_chunk(njs::Journal& journal,
                          const BundleManifest& manifest,
                          std::uint32_t file_index, const Chunk& chunk) {
  util::ByteWriter w;
  w.blob(manifest.key);
  w.u32(file_index);
  // The synthetic flag controls whether Chunk::encode pads or stores,
  // so journaled real chunks keep their payload bytes (WAL semantics)
  // while synthetic chunks stay metadata-only.
  chunk.encode(w);
  journal.append(
      {njs::JournalRecordType::kXferBundleChunk, manifest.token, w.take()});
}

void journal_bundle_done(njs::Journal& journal,
                         const BundleManifest& manifest) {
  util::ByteWriter w;
  w.blob(manifest.key);
  journal.append(
      {njs::JournalRecordType::kXferBundleDone, manifest.token, w.take()});
}

void journal_bundle_expired(njs::Journal& journal,
                            const BundleManifest& manifest) {
  util::ByteWriter w;
  w.blob(manifest.key);
  journal.append(
      {njs::JournalRecordType::kXferBundleExpired, manifest.token, w.take()});
}

std::vector<RecoveredBundle> recover_bundles(const njs::Journal& journal) {
  std::map<util::Bytes, RecoveredBundle> open;
  // Duplicate suppression per (file index, chunk index).
  std::map<util::Bytes, std::set<std::pair<std::uint32_t, std::uint64_t>>>
      seen;
  journal.replay([&](const njs::JournalRecord& record) {
    // A truncated record (crash mid-append) fails its reader and is
    // dropped; the sender re-delivers the chunk because it never saw
    // the ack.
    util::ByteReader r{record.payload};
    switch (record.type) {
      case njs::JournalRecordType::kXferBundleManifest: {
        BundleManifest manifest = BundleManifest::decode(r);
        if (!r.ok()) return;
        util::Bytes key = manifest.key;
        RecoveredBundle& bundle = open[key];
        bundle.manifest = std::move(manifest);
        break;
      }
      case njs::JournalRecordType::kXferBundleChunk: {
        util::Bytes key = r.blob();
        auto it = open.find(key);
        if (it == open.end()) return;  // done or never opened
        std::uint32_t file_index = r.u32();
        Chunk chunk = Chunk::decode(r);
        if (!r.ok()) return;
        if (!seen[key].insert({file_index, chunk.index}).second)
          return;  // duplicate
        it->second.chunks.emplace_back(file_index, std::move(chunk));
        break;
      }
      case njs::JournalRecordType::kXferBundleDone:
      case njs::JournalRecordType::kXferBundleExpired: {
        util::Bytes key = r.blob();
        if (!r.ok()) return;
        open.erase(key);
        seen.erase(key);
        break;
      }
      default:
        break;  // job records, owned by Journal::recover()
    }
  });
  std::vector<RecoveredBundle> out;
  out.reserve(open.size());
  for (auto& [key, bundle] : open) out.push_back(std::move(bundle));
  return out;
}

std::vector<util::Bytes> completed_bundle_keys(const njs::Journal& journal) {
  std::vector<util::Bytes> keys;
  journal.replay([&](const njs::JournalRecord& record) {
    if (record.type != njs::JournalRecordType::kXferBundleDone) return;
    util::ByteReader r{record.payload};
    util::Bytes key = r.blob();
    if (r.ok()) keys.push_back(std::move(key));
  });
  return keys;
}

}  // namespace unicore::xfer
