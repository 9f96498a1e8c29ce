#include "xfer/wire.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/chunk_digest.h"

namespace unicore::xfer {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

crypto::Digest read_digest(ByteReader& r) {
  Bytes raw = r.raw(32);
  crypto::Digest digest;
  std::copy(raw.begin(), raw.end(), digest.begin());
  return digest;
}

/// Reads an element count. Every element takes at least one byte, so a
/// count beyond the remaining input is malformed — rejected before it
/// can size an allocation.
std::uint64_t read_count(ByteReader& r) {
  std::uint64_t n = r.varint();
  if (n > r.remaining())
    throw std::out_of_range("xfer: element count exceeds input");
  return n;
}

void write_digests(ByteWriter& w, const std::vector<crypto::Digest>& digests) {
  w.varint(digests.size());
  for (const crypto::Digest& digest : digests) w.raw(digest);
}

std::vector<crypto::Digest> read_digests(ByteReader& r) {
  std::uint64_t n = read_count(r);
  std::vector<crypto::Digest> digests;
  digests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) digests.push_back(read_digest(r));
  return digests;
}

}  // namespace

std::uint64_t chunk_count(std::uint64_t size, std::uint32_t chunk_bytes) {
  return crypto::chunk_count(size, chunk_bytes);
}

void Chunk::encode(ByteWriter& w) const {
  w.u64(index);
  w.u32(length);
  w.boolean(synthetic);
  w.raw(digest);
  if (synthetic)
    w.pad(length);  // charges the wire without storing the bytes
  else
    w.blob(data);
}

Chunk Chunk::decode(ByteReader& r) {
  Chunk chunk;
  chunk.index = r.u64();
  chunk.length = r.u32();
  chunk.synthetic = r.boolean();
  chunk.digest = read_digest(r);
  if (chunk.synthetic)
    r.skip(chunk.length);
  else
    chunk.data = r.blob();
  return chunk;
}

crypto::Digest chunk_digest(util::ByteView payload) {
  return crypto::chunk_content_digest(payload);
}

crypto::Digest synthetic_chunk_digest(const crypto::Digest& file_checksum,
                                      std::uint64_t index,
                                      std::uint32_t length) {
  return crypto::synthetic_chunk_digest(file_checksum, index, length);
}

namespace {

/// Chunk `index` of `blob` without its digest.
Chunk cut_chunk(const uspace::FileBlob& blob, std::uint64_t index,
                std::uint32_t chunk_bytes) {
  Chunk chunk;
  chunk.index = index;
  chunk.length = crypto::chunk_length(blob.size(), chunk_bytes, index);
  chunk.synthetic = blob.is_synthetic();
  if (!chunk.synthetic) {
    // Inline and store-backed blobs alike: read_range walks stored
    // blobs one chunk at a time, so a multi-GiB file never has to be
    // resident to be sent.
    chunk.data.reserve(chunk.length);
    (void)blob.read_range(index * static_cast<std::uint64_t>(chunk_bytes),
                          chunk.length, chunk.data);
  }
  return chunk;
}

}  // namespace

Chunk make_chunk(const uspace::FileBlob& blob, std::uint64_t index,
                 std::uint32_t chunk_bytes) {
  Chunk chunk = cut_chunk(blob, index, chunk_bytes);
  chunk.digest = chunk.synthetic ? synthetic_chunk_digest(blob.checksum(),
                                                          index, chunk.length)
                                 : chunk_digest(chunk.data);
  return chunk;
}

Chunk make_chunk(const uspace::FileBlob& blob, std::uint64_t index,
                 std::uint32_t chunk_bytes, const crypto::Digest& digest) {
  Chunk chunk = cut_chunk(blob, index, chunk_bytes);
  chunk.digest = digest;
  return chunk;
}

void encode_ranges(ByteWriter& w, const std::vector<ChunkRange>& ranges) {
  w.varint(ranges.size());
  for (const ChunkRange& range : ranges) {
    w.u64(range.first);
    w.u64(range.count);
  }
}

std::vector<ChunkRange> decode_ranges(ByteReader& r) {
  std::uint64_t n = read_count(r);
  std::vector<ChunkRange> ranges;
  ranges.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ChunkRange range;
    range.first = r.u64();
    range.count = r.u64();
    ranges.push_back(range);
  }
  return ranges;
}

// ---- kXferBundleOpen (push) ------------------------------------------------

void BundleFileEntry::encode(ByteWriter& w) const {
  w.str(name);
  w.u64(size);
  w.raw(checksum);
  w.boolean(synthetic);
  write_digests(w, digests);
}

BundleFileEntry BundleFileEntry::decode(ByteReader& r) {
  BundleFileEntry entry;
  entry.name = r.str();
  entry.size = r.u64();
  entry.checksum = read_digest(r);
  entry.synthetic = r.boolean();
  entry.digests = read_digests(r);
  return entry;
}

Bytes BundleOpenRequest::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(role));
  w.blob(key);
  w.u64(token);
  w.u32(proposed_chunk_bytes);
  w.varint(files.size());
  for (const BundleFileEntry& file : files) file.encode(w);
  return w.take();
}

BundleOpenRequest BundleOpenRequest::decode(ByteReader& r) {
  BundleOpenRequest request;
  request.key = r.blob();
  request.token = r.u64();
  request.proposed_chunk_bytes = r.u32();
  std::uint64_t n = read_count(r);
  request.files.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    request.files.push_back(BundleFileEntry::decode(r));
  return request;
}

void BundleFileState::encode(ByteWriter& w) const {
  w.boolean(complete);
  encode_ranges(w, have);
}

BundleFileState BundleFileState::decode(ByteReader& r) {
  BundleFileState state;
  state.complete = r.boolean();
  state.have = decode_ranges(r);
  return state;
}

Bytes BundleOpenReply::encode() const {
  ByteWriter w;
  w.u64(transfer_id);
  w.u32(chunk_bytes);
  w.u32(credit);
  w.varint(files.size());
  for (const BundleFileState& file : files) file.encode(w);
  return w.take();
}

BundleOpenReply BundleOpenReply::decode(ByteReader& r) {
  BundleOpenReply reply;
  reply.transfer_id = r.u64();
  reply.chunk_bytes = r.u32();
  reply.credit = r.u32();
  std::uint64_t n = read_count(r);
  reply.files.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    reply.files.push_back(BundleFileState::decode(r));
  return reply;
}

// ---- kXferChunk ------------------------------------------------------------

Bytes BundleChunkRequest::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(role));
  w.u64(transfer_id);
  w.u32(file_index);
  chunk.encode(w);
  return w.take();
}

BundleChunkRequest BundleChunkRequest::decode(std::uint64_t transfer_id,
                                              ByteReader& r) {
  BundleChunkRequest request;
  request.transfer_id = transfer_id;
  request.file_index = r.u32();
  request.chunk = Chunk::decode(r);
  return request;
}

Bytes BundleChunkReply::encode() const {
  ByteWriter w;
  w.boolean(applied);
  w.u32(credit);
  return w.take();
}

BundleChunkReply BundleChunkReply::decode(ByteReader& r) {
  BundleChunkReply reply;
  reply.applied = r.boolean();
  reply.credit = r.u32();
  return reply;
}

Bytes BundlePullChunkRequest::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(role));
  w.u64(transfer_id);
  w.u32(file_index);
  w.u64(index);
  return w.take();
}

BundlePullChunkRequest BundlePullChunkRequest::decode(Role role,
                                                      std::uint64_t transfer_id,
                                                      ByteReader& r) {
  BundlePullChunkRequest request;
  request.role = role;
  request.transfer_id = transfer_id;
  request.file_index = r.u32();
  request.index = r.u64();
  return request;
}

// ---- kXferBundleOpen (pull) ------------------------------------------------

Bytes BundlePullOpenRequest::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(role));
  w.u64(token);
  w.u32(proposed_chunk_bytes);
  w.u32(inline_limit);
  w.varint(names.size());
  for (const std::string& name : names) w.str(name);
  return w.take();
}

BundlePullOpenRequest BundlePullOpenRequest::decode(Role role, ByteReader& r) {
  BundlePullOpenRequest request;
  request.role = role;
  request.token = r.u64();
  request.proposed_chunk_bytes = r.u32();
  request.inline_limit = r.u32();
  std::uint64_t n = read_count(r);
  request.names.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) request.names.push_back(r.str());
  return request;
}

void BundlePullFileInfo::encode(ByteWriter& w) const {
  w.u64(size);
  w.raw(checksum);
  w.boolean(synthetic);
  write_digests(w, digests);
}

BundlePullFileInfo BundlePullFileInfo::decode(ByteReader& r) {
  BundlePullFileInfo info;
  info.size = r.u64();
  info.checksum = read_digest(r);
  info.synthetic = r.boolean();
  info.digests = read_digests(r);
  return info;
}

Bytes BundlePullOpenReply::encode() const {
  ByteWriter w;
  w.boolean(inline_blob.has_value());
  if (inline_blob) {
    inline_blob->encode(w);
    return w.take();
  }
  w.u64(transfer_id);
  w.u32(chunk_bytes);
  w.varint(files.size());
  for (const BundlePullFileInfo& file : files) file.encode(w);
  return w.take();
}

BundlePullOpenReply BundlePullOpenReply::decode(ByteReader& r) {
  BundlePullOpenReply reply;
  if (r.boolean()) {
    reply.inline_blob = uspace::FileBlob::decode(r);
    return reply;
  }
  reply.transfer_id = r.u64();
  reply.chunk_bytes = r.u32();
  std::uint64_t n = read_count(r);
  reply.files.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    reply.files.push_back(BundlePullFileInfo::decode(r));
  return reply;
}

// ---- kXferBundleClose ------------------------------------------------------

Bytes BundleCloseRequest::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(role));
  w.u64(transfer_id);
  if (role_is_push(role)) w.blob(key);
  return w.take();
}

BundleCloseRequest BundleCloseRequest::decode(Role role, ByteReader& r) {
  BundleCloseRequest request;
  request.role = role;
  request.transfer_id = r.u64();
  if (role_is_push(role)) request.key = r.blob();
  return request;
}

Bytes make_bundle_key(const std::string& source_usite, ajo::JobToken token,
                      const std::vector<BundleFileEntry>& files) {
  ByteWriter w;
  w.str("unicore-xfer-bundle-key");
  w.str(source_usite);
  w.u64(token);
  w.varint(files.size());
  for (const BundleFileEntry& file : files) {
    w.str(file.name);
    w.raw(file.checksum);
    w.u64(file.size);
  }
  return crypto::digest_bytes(crypto::sha256(w.bytes()));
}

}  // namespace unicore::xfer
