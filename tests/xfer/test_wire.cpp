// Wire framing of the chunked transfer protocol: chunk math, digests,
// the durable bundle key, and request/reply codec round-trips (a single
// file is a bundle of one).
#include "xfer/wire.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "common/wire_fuzz.h"
#include "store/chunk_store.h"
#include "util/rng.h"
#include "xfer/manifest.h"

namespace unicore::xfer {
namespace {

TEST(ChunkCount, EmptyFileStillHasOneChunk) {
  // Open/close must round-trip even for zero-byte files.
  EXPECT_EQ(chunk_count(0, kDefaultChunkBytes), 1u);
}

TEST(ChunkCount, ExactMultipleAndRemainder) {
  EXPECT_EQ(chunk_count(1024, 1024), 1u);
  EXPECT_EQ(chunk_count(2048, 1024), 2u);
  EXPECT_EQ(chunk_count(2049, 1024), 3u);
  EXPECT_EQ(chunk_count(1, kDefaultChunkBytes), 1u);
  EXPECT_EQ(chunk_count(64ull << 20, 1 << 20), 64u);
}

TEST(Digests, RealAndSyntheticDigestsAreDomainSeparated) {
  uspace::FileBlob blob = uspace::FileBlob::from_string("payload");
  crypto::Digest real = chunk_digest(*blob.bytes());
  crypto::Digest again = chunk_digest(*blob.bytes());
  EXPECT_EQ(real, again);

  crypto::Digest synth =
      synthetic_chunk_digest(blob.checksum(), 0, 7);
  EXPECT_NE(real, synth);
  // Every coordinate participates in the synthetic digest.
  EXPECT_NE(synth, synthetic_chunk_digest(blob.checksum(), 1, 7));
  EXPECT_NE(synth, synthetic_chunk_digest(blob.checksum(), 0, 8));
}

TEST(MakeChunk, SlicesRealBlobWithShortTail) {
  const std::size_t size = 2 * kDefaultChunkBytes + 452;
  std::string content(size, 'x');
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<char>('a' + i % 26);
  uspace::FileBlob blob = uspace::FileBlob::from_string(content);

  Chunk first = make_chunk(blob, 0);
  Chunk last = make_chunk(blob, 2);
  EXPECT_EQ(first.length, kDefaultChunkBytes);
  EXPECT_FALSE(first.synthetic);
  ASSERT_EQ(first.data.size(), kDefaultChunkBytes);
  EXPECT_EQ(first.digest, chunk_digest(first.data));
  EXPECT_EQ(last.length, 452u);
  EXPECT_EQ(last.data.size(), last.length);
  EXPECT_EQ(static_cast<char>(last.data[0]), content[2 * kDefaultChunkBytes]);
}

// make_chunk takes the digest the blob holds; every chunk's digest is
// its payload's, wherever the content lives. The chunk size is the one
// size: a caller naming another is refused.
TEST(MakeChunk, DigestIsThePayloadsAtEveryGranularity) {
  auto inline_blob =
      std::make_shared<const uspace::FileBlob>(uspace::FileBlob::from_bytes(
          util::Rng(3).bytes(2 * kDefaultChunkBytes + 77)));
  auto chunk_store = std::make_shared<store::ChunkStore>();
  auto stored = uspace::intern_blob(chunk_store, inline_blob);
  ASSERT_TRUE(stored->is_stored());
  for (const auto& blob : {inline_blob, stored}) {
    std::uint64_t total = chunk_count(blob->size());
    ASSERT_EQ(total, 3u);
    for (std::uint64_t index = 0; index < total; ++index) {
      Chunk chunk = make_chunk(*blob, index);
      ASSERT_EQ(chunk.data.size(), chunk.length);
      EXPECT_EQ(chunk.digest, chunk_digest(chunk.data))
          << (blob->is_stored() ? "stored" : "inline") << " blob, chunk "
          << index;
    }
    for (std::uint32_t chunk_bytes :
         {0u, kDefaultChunkBytes / 16, 2 * kDefaultChunkBytes})
      EXPECT_THROW(make_chunk(*blob, 0, chunk_bytes), std::invalid_argument);
  }
}

TEST(MakeChunk, SyntheticBlobCarriesNoPayload) {
  uspace::FileBlob blob = uspace::FileBlob::synthetic(10 << 20, 42);
  Chunk chunk = make_chunk(blob, 3, 1 << 20);
  EXPECT_TRUE(chunk.synthetic);
  EXPECT_TRUE(chunk.data.empty());
  EXPECT_EQ(chunk.length, 1u << 20);
  EXPECT_EQ(chunk.digest,
            synthetic_chunk_digest(blob.checksum(), 3, 1 << 20));
}

TEST(TransferKey, StableAndSensitiveToEveryField) {
  // A single file is a bundle of one: its durable key covers the
  // source site, the target token, and the file's name, checksum and
  // size.
  uspace::FileBlob blob = uspace::FileBlob::from_string("data");
  auto key = [&](const std::string& site, ajo::JobToken token,
                 const std::string& name, const uspace::FileBlob& content,
                 std::uint64_t size) {
    BundleFileEntry entry;
    entry.name = name;
    entry.size = size;
    entry.checksum = content.checksum();
    return make_bundle_key(site, token, {entry});
  };
  util::Bytes base = key("FZ-Juelich", 7, "out.bin", blob, 4);
  EXPECT_EQ(base.size(), 32u);
  EXPECT_EQ(base, key("FZ-Juelich", 7, "out.bin", blob, 4));  // deterministic
  EXPECT_NE(base, key("LRZ", 7, "out.bin", blob, 4));
  EXPECT_NE(base, key("FZ-Juelich", 8, "out.bin", blob, 4));
  EXPECT_NE(base, key("FZ-Juelich", 7, "other.bin", blob, 4));
  EXPECT_NE(base, key("FZ-Juelich", 7, "out.bin",
                      uspace::FileBlob::from_string("atad"), 4));
  EXPECT_NE(base, key("FZ-Juelich", 7, "out.bin", blob, 5));
}

TEST(Ranges, CodecRoundTrip) {
  std::vector<ChunkRange> ranges{{0, 4}, {7, 1}, {100, 50}};
  util::ByteWriter w;
  encode_ranges(w, ranges);
  util::ByteReader r{w.bytes()};
  EXPECT_EQ(decode_ranges(r), ranges);
  EXPECT_TRUE(r.done());

  util::ByteWriter empty;
  encode_ranges(empty, {});
  util::ByteReader er{empty.bytes()};
  EXPECT_TRUE(decode_ranges(er).empty());
}

TEST(ChunkCodec, RoundTripRealAndSynthetic) {
  uspace::FileBlob blob = uspace::FileBlob::from_string("chunk payload");
  Chunk real = make_chunk(blob, 0);
  util::ByteWriter w;
  real.encode(w);
  util::ByteReader r{w.bytes()};
  Chunk decoded = Chunk::decode(r);
  EXPECT_EQ(decoded.index, real.index);
  EXPECT_EQ(decoded.length, real.length);
  EXPECT_FALSE(decoded.synthetic);
  EXPECT_EQ(decoded.digest, real.digest);
  EXPECT_EQ(decoded.data, real.data);

  uspace::FileBlob synth = uspace::FileBlob::synthetic(4 << 20, 9);
  Chunk sc = make_chunk(synth, 2, 1 << 20);
  util::ByteWriter sw;
  sc.encode(sw);
  // The wire charges `length` bytes for the synthetic padding so the
  // simulated network prices the chunk like a real one.
  EXPECT_GE(sw.size(), sc.length);
  util::ByteReader sr{sw.bytes()};
  Chunk sdec = Chunk::decode(sr);
  EXPECT_TRUE(sdec.synthetic);
  EXPECT_TRUE(sdec.data.empty());
  EXPECT_EQ(sdec.digest, sc.digest);
}

TEST(OpenCodec, PushRequestLeadsWithRoleByte) {
  // A one-file push open: the role byte leads, so the gateway picks
  // the authentication path without parsing the rest.
  uspace::FileBlob blob = uspace::FileBlob::from_string("f");
  BundleOpenRequest req;
  req.token = 3;
  BundleFileEntry entry;
  entry.name = "f.bin";
  entry.size = blob.size();
  entry.checksum = blob.checksum();
  req.files.push_back(entry);
  req.key = make_bundle_key("FZ-Juelich", 3, req.files);

  util::Bytes wire = req.encode();
  util::ByteReader r{wire};
  EXPECT_EQ(static_cast<Role>(r.u8()), Role::kPush);
  BundleOpenRequest decoded = BundleOpenRequest::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.key, req.key);
  EXPECT_EQ(decoded.token, req.token);
  ASSERT_EQ(decoded.files.size(), 1u);
  EXPECT_EQ(decoded.files[0].name, "f.bin");
  EXPECT_EQ(decoded.files[0].size, blob.size());
  EXPECT_EQ(decoded.files[0].checksum, blob.checksum());
}

TEST(OpenCodec, PushReplyRoundTripsResumeState) {
  // The commit-tombstone reply: no transfer id, every file complete.
  BundleOpenReply reply;
  reply.files.resize(1);
  reply.files[0].complete = true;
  util::Bytes wire = reply.encode();
  util::ByteReader r{wire};
  BundleOpenReply decoded = BundleOpenReply::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.transfer_id, 0u);
  EXPECT_EQ(decoded.credit, 0u);
  ASSERT_EQ(decoded.files.size(), 1u);
  EXPECT_TRUE(decoded.files[0].complete);
}

TEST(OpenCodec, PullRequestAndInlineReply) {
  // A one-file pull open asks for inlining; the reply carries the blob
  // itself, with no transfer to open or close.
  BundlePullOpenRequest req;
  req.role = Role::kClientPull;
  req.token = 9;
  req.inline_limit = 4096;
  req.names = {"stdout"};
  util::Bytes wire = req.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  EXPECT_EQ(role, Role::kClientPull);
  BundlePullOpenRequest decoded = BundlePullOpenRequest::decode(role, r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.token, 9u);
  EXPECT_EQ(decoded.names, req.names);
  EXPECT_EQ(decoded.inline_limit, 4096u);

  BundlePullOpenReply inline_reply;
  inline_reply.inline_blob = uspace::FileBlob::from_string("tiny output");
  util::Bytes inline_wire = inline_reply.encode();
  util::ByteReader ir{inline_wire};
  BundlePullOpenReply idec = BundlePullOpenReply::decode(ir);
  EXPECT_TRUE(ir.done());
  ASSERT_TRUE(idec.inline_blob.has_value());
  EXPECT_EQ(idec.inline_blob->checksum(), inline_reply.inline_blob->checksum());
  EXPECT_TRUE(idec.files.empty());
}

TEST(ChunkOpCodec, PushAndPullRoundTrip) {
  uspace::FileBlob blob = uspace::FileBlob::from_string("abc");
  BundleChunkRequest req;
  req.transfer_id = 11;
  req.chunk = make_chunk(blob, 0);
  util::Bytes req_wire = req.encode();
  util::ByteReader r{req_wire};
  EXPECT_EQ(static_cast<Role>(r.u8()), Role::kPush);
  std::uint64_t id = r.u64();
  BundleChunkRequest decoded = BundleChunkRequest::decode(id, r);
  EXPECT_EQ(decoded.transfer_id, 11u);
  EXPECT_EQ(decoded.file_index, 0u);
  EXPECT_EQ(decoded.chunk.digest, req.chunk.digest);

  BundleChunkReply reply{/*applied=*/false, /*credit=*/3};
  util::Bytes reply_wire = reply.encode();
  util::ByteReader rr{reply_wire};
  BundleChunkReply rdec = BundleChunkReply::decode(rr);
  EXPECT_FALSE(rdec.applied);
  EXPECT_EQ(rdec.credit, 3u);

  BundlePullChunkRequest pull;
  pull.role = Role::kPeerPull;
  pull.transfer_id = 6;
  pull.file_index = 2;
  pull.index = 41;
  util::Bytes pull_wire = pull.encode();
  util::ByteReader pr{pull_wire};
  Role role = static_cast<Role>(pr.u8());
  EXPECT_EQ(role, Role::kPeerPull);
  std::uint64_t pull_id = pr.u64();
  BundlePullChunkRequest pdec =
      BundlePullChunkRequest::decode(role, pull_id, pr);
  EXPECT_TRUE(pr.done());
  EXPECT_EQ(pdec.transfer_id, 6u);
  EXPECT_EQ(pdec.file_index, 2u);
  EXPECT_EQ(pdec.index, 41u);
}

TEST(CloseCodec, PushCarriesKeyPullDoesNot) {
  // The client roles follow the peer roles' rule.
  BundleCloseRequest close;
  close.role = Role::kClientPush;
  close.transfer_id = 2;
  close.key = util::Bytes(32, 7);
  util::Bytes close_wire = close.encode();
  util::ByteReader r{close_wire};
  Role role = static_cast<Role>(r.u8());
  EXPECT_EQ(role, Role::kClientPush);
  BundleCloseRequest decoded = BundleCloseRequest::decode(role, r);
  EXPECT_EQ(decoded.transfer_id, 2u);
  EXPECT_EQ(decoded.key, close.key);

  BundleCloseRequest pull_close;
  pull_close.role = Role::kClientPull;
  pull_close.transfer_id = 9;
  util::Bytes pull_close_wire = pull_close.encode();
  util::ByteReader pr{pull_close_wire};
  Role prole = static_cast<Role>(pr.u8());
  BundleCloseRequest pdec = BundleCloseRequest::decode(prole, pr);
  EXPECT_EQ(pdec.transfer_id, 9u);
  EXPECT_TRUE(pdec.key.empty());
}

TEST(BundleCodec, OpenRequestRoundTripsManifests) {
  uspace::FileBlob a = uspace::FileBlob::from_string("alpha");
  uspace::FileBlob b = uspace::FileBlob::synthetic(48 << 20, 5);
  BundleOpenRequest request;
  request.role = Role::kClientPush;
  request.token = 42;
  for (const uspace::FileBlob* blob : {&a, &b}) {
    BundleFileEntry entry;
    entry.name = blob == &a ? "a.txt" : "b.bin";
    entry.size = blob->size();
    entry.checksum = blob->checksum();
    entry.synthetic = blob->is_synthetic();
    entry.digests = blob->chunk_digests();
    request.files.push_back(std::move(entry));
  }
  request.key = make_bundle_key("FZJ", request.token, request.files);
  ASSERT_EQ(request.key.size(), 32u);

  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  EXPECT_EQ(role, Role::kClientPush);
  BundleOpenRequest decoded = BundleOpenRequest::decode(r);
  EXPECT_EQ(decoded.key, request.key);
  EXPECT_EQ(decoded.token, 42u);
  ASSERT_EQ(decoded.files.size(), 2u);
  EXPECT_EQ(decoded.files[0].name, "a.txt");
  EXPECT_EQ(decoded.files[0].checksum, a.checksum());
  EXPECT_EQ(decoded.files[0].digests, a.chunk_digests());
  EXPECT_EQ(decoded.files[1].size, b.size());
  EXPECT_TRUE(decoded.files[1].synthetic);
  EXPECT_EQ(decoded.files[1].digests.size(), 48u);  // 48 MiB / 1 MiB
}

TEST(BundleCodec, BundleKeyIsOrderAndContentSensitive) {
  BundleFileEntry a;
  a.name = "a";
  a.size = 1;
  BundleFileEntry b;
  b.name = "b";
  b.size = 2;
  util::Bytes key = make_bundle_key("FZJ", 7, {a, b});
  EXPECT_EQ(key, make_bundle_key("FZJ", 7, {a, b}));  // deterministic
  EXPECT_NE(key, make_bundle_key("FZJ", 7, {b, a}));  // order matters
  EXPECT_NE(key, make_bundle_key("LRZ", 7, {a, b}));  // source matters
  EXPECT_NE(key, make_bundle_key("FZJ", 8, {a, b}));  // token matters
  b.size = 3;
  EXPECT_NE(key, make_bundle_key("FZJ", 7, {a, b}));  // content matters
}

TEST(BundleCodec, OpenReplyRoundTripsPerFileState) {
  BundleOpenReply reply;
  reply.transfer_id = 99;
  reply.credit = 12;
  BundleFileState done;
  done.complete = true;
  BundleFileState partial;
  partial.have = {{0, 3}, {7, 9}};
  reply.files = {done, partial};

  util::Bytes wire = reply.encode();
  util::ByteReader r{wire};
  BundleOpenReply decoded = BundleOpenReply::decode(r);
  EXPECT_EQ(decoded.transfer_id, 99u);
  EXPECT_EQ(decoded.credit, 12u);
  ASSERT_EQ(decoded.files.size(), 2u);
  EXPECT_TRUE(decoded.files[0].complete);
  EXPECT_TRUE(decoded.files[0].have.empty());
  EXPECT_FALSE(decoded.files[1].complete);
  ASSERT_EQ(decoded.files[1].have.size(), 2u);
  EXPECT_EQ(decoded.files[1].have[1].first, 7u);
  EXPECT_EQ(decoded.files[1].have[1].count, 9u);
}

TEST(BundleCodec, ChunkRequestCarriesFileIndexAfterTransferId) {
  uspace::FileBlob blob = uspace::FileBlob::from_string("bundle chunk");
  BundleChunkRequest request;
  request.role = Role::kPush;
  request.transfer_id = 7;
  request.file_index = 3;
  request.chunk = make_chunk(blob, 0);

  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  EXPECT_EQ(static_cast<Role>(r.u8()), Role::kPush);
  // The service reads the id itself to route the chunk first.
  std::uint64_t id = r.u64();
  EXPECT_EQ(id, 7u);
  BundleChunkRequest decoded = BundleChunkRequest::decode(id, r);
  EXPECT_EQ(decoded.file_index, 3u);
  EXPECT_EQ(decoded.chunk.digest, request.chunk.digest);
  EXPECT_EQ(decoded.chunk.data, request.chunk.data);
}

TEST(BundleCodec, PullOpenRoundTripsNamesAndManifests) {
  BundlePullOpenRequest request;
  request.role = Role::kClientPull;
  request.token = 11;
  request.names = {"out0", "out1", "out2"};
  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  EXPECT_EQ(role, Role::kClientPull);
  BundlePullOpenRequest decoded = BundlePullOpenRequest::decode(role, r);
  EXPECT_EQ(decoded.token, 11u);
  EXPECT_EQ(decoded.names, request.names);

  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 9);
  BundlePullOpenReply reply;
  reply.transfer_id = 5;
  BundlePullFileInfo info;
  info.size = blob.size();
  info.checksum = blob.checksum();
  info.synthetic = true;
  info.digests = blob.chunk_digests();
  reply.files.push_back(info);
  util::Bytes reply_wire = reply.encode();
  util::ByteReader rr{reply_wire};
  BundlePullOpenReply rdec = BundlePullOpenReply::decode(rr);
  EXPECT_EQ(rdec.transfer_id, 5u);
  ASSERT_EQ(rdec.files.size(), 1u);
  EXPECT_EQ(rdec.files[0].checksum, blob.checksum());
  EXPECT_EQ(rdec.files[0].digests, info.digests);
}

TEST(BundleCodec, CloseRequestKeyTravelsOnPushRolesOnly) {
  BundleCloseRequest close;
  close.role = Role::kPush;
  close.transfer_id = 2;
  close.key = util::Bytes(32, 0x5a);
  util::Bytes wire = close.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  BundleCloseRequest decoded = BundleCloseRequest::decode(role, r);
  EXPECT_EQ(decoded.transfer_id, 2u);
  EXPECT_EQ(decoded.key, close.key);

  BundleCloseRequest pull_close;
  pull_close.role = Role::kPeerPull;
  pull_close.transfer_id = 9;
  util::Bytes pull_wire = pull_close.encode();
  util::ByteReader pr{pull_wire};
  Role prole = static_cast<Role>(pr.u8());
  BundleCloseRequest pdec = BundleCloseRequest::decode(prole, pr);
  EXPECT_EQ(pdec.transfer_id, 9u);
  EXPECT_TRUE(pdec.key.empty());
}

TEST(Codec, TruncatedBodyFailsInsteadOfMisparsing) {
  uspace::FileBlob blob = uspace::FileBlob::from_string("abcdef");
  BundleChunkRequest req;
  req.transfer_id = 1;
  req.chunk = make_chunk(blob, 0);
  util::Bytes wire = req.encode();
  wire.resize(wire.size() / 2);
  util::ByteReader r{wire};
  r.u8();  // role
  std::uint64_t id = r.u64();
  (void)BundleChunkRequest::decode(id, r);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, CountBeyondTheBodyIsRejectedBeforeAllocating) {
  // A garbled element count must not size an allocation: it fails as
  // truncation does.
  util::ByteWriter w;
  w.u64(1);                   // transfer id
  w.u32(kDefaultChunkBytes);  // chunk bytes
  w.u32(0);                   // credit
  w.varint(1ull << 40);  // files
  util::ByteReader r{w.bytes()};
  (void)BundleOpenReply::decode(r);
  EXPECT_FALSE(r.ok());
}

// ---- pinned wire bytes -----------------------------------------------------
//
// The opens of both directions and the durable bundle manifest, encoded
// from fixed inputs and compared byte for byte. Every u32 chunk-size
// field carries 1 MiB (00 10 00 00).

/// `pieces` laid end to end.
util::Bytes cat(std::initializer_list<util::Bytes> pieces) {
  util::Bytes out;
  for (const util::Bytes& piece : pieces) util::append(out, piece);
  return out;
}

util::Bytes u64_of(std::uint8_t low) { return {0, 0, 0, 0, 0, 0, 0, low}; }

const util::Bytes kOneMiB{0x00, 0x10, 0x00, 0x00};
const util::Bytes kKey{0xaa, 0xbb, 0xcc, 0xdd};

TEST(XferWire, OpenAndManifestBytesArePinned) {
  // Push open: role | blob key | u64 token | u32 chunk bytes | files.
  // A file: str name | u64 size | checksum | bool synthetic | digests.
  BundleOpenRequest push;
  push.key = kKey;
  push.token = 7;
  push.files.push_back(
      {"f", 5, crypto::Digest{}, false, {crypto::Digest{}}});
  push.files[0].checksum.fill(0x11);
  push.files[0].digests[0].fill(0x22);
  const util::Bytes push_wire =
      cat({{0x01, 0x04}, kKey, u64_of(7), kOneMiB, {0x01, 0x01, 'f'},
           u64_of(5), util::Bytes(32, 0x11), {0x00, 0x01},
           util::Bytes(32, 0x22)});
  EXPECT_EQ(push.encode(), push_wire);

  // Push open reply: u64 transfer id | u32 chunk bytes | u32 credit |
  // files, each a bool complete and its have-ranges.
  BundleOpenReply push_reply;
  push_reply.transfer_id = 9;
  push_reply.credit = 3;
  push_reply.files.resize(2);
  push_reply.files[0].complete = true;
  push_reply.files[1].have = {{1, 2}};
  const util::Bytes push_reply_wire =
      cat({u64_of(9), kOneMiB, {0, 0, 0, 3}, {0x02, 0x01, 0x00, 0x00, 0x01},
           u64_of(1), u64_of(2)});
  EXPECT_EQ(push_reply.encode(), push_reply_wire);

  // Pull open: role | u64 token | u32 chunk bytes | u32 inline limit |
  // names.
  BundlePullOpenRequest pull;
  pull.token = 7;
  pull.inline_limit = 0x100;
  pull.names = {"a", "bc"};
  const util::Bytes pull_wire =
      cat({{0x02}, u64_of(7), kOneMiB, {0, 0, 0x01, 0x00},
           {0x02, 0x01, 'a', 0x02, 'b', 'c'}});
  EXPECT_EQ(pull.encode(), pull_wire);

  // Chunked pull open reply: bool inline | u64 transfer id | u32 chunk
  // bytes | files, each u64 size | checksum | bool synthetic | digests.
  BundlePullOpenReply pull_reply;
  pull_reply.transfer_id = 5;
  pull_reply.files.push_back({3, crypto::Digest{}, true, {crypto::Digest{}}});
  pull_reply.files[0].checksum.fill(0x33);
  pull_reply.files[0].digests[0].fill(0x44);
  const util::Bytes pull_reply_wire =
      cat({{0x00}, u64_of(5), kOneMiB, {0x01}, u64_of(3),
           util::Bytes(32, 0x33), {0x01, 0x01}, util::Bytes(32, 0x44)});
  EXPECT_EQ(pull_reply.encode(), pull_reply_wire);

  // kXferBundleManifest payload: blob key | u64 token | u32 chunk bytes |
  // principal (five strs) | files, each str name | u64 size | checksum |
  // bool synthetic.
  BundleManifest manifest;
  manifest.key = kKey;
  manifest.token = 7;
  manifest.principal.country = "DE";
  manifest.principal.common_name = "p";
  manifest.files.push_back({"f", 5, crypto::Digest{}, true});
  manifest.files[0].checksum.fill(0x55);
  const util::Bytes manifest_record =
      cat({{0x04}, kKey, u64_of(7), kOneMiB,
           {0x02, 'D', 'E', 0x00, 0x00, 0x01, 'p', 0x00},
           {0x01, 0x01, 'f'}, u64_of(5), util::Bytes(32, 0x55), {0x01}});
  njs::Journal journal{std::make_shared<njs::JournalStore>()};
  journal_bundle_manifest(journal, manifest);
  std::size_t records = 0;
  journal.replay([&](const njs::JournalRecord& record) {
    ++records;
    EXPECT_EQ(record.type, njs::JournalRecordType::kXferBundleManifest);
    EXPECT_EQ(record.token, 7u);
    EXPECT_EQ(record.payload, manifest_record);
  });
  EXPECT_EQ(records, 1u);

  // Each pinned body decodes back to its inputs, with nothing left over.
  util::ByteReader push_reader{push_wire};
  push_reader.u8();  // the role byte
  BundleOpenRequest push_back = BundleOpenRequest::decode(push_reader);
  ASSERT_TRUE(push_reader.finish().ok());
  EXPECT_EQ(push_back.files[0].digests, push.files[0].digests);
  util::ByteReader push_reply_reader{push_reply_wire};
  BundleOpenReply push_reply_back = BundleOpenReply::decode(push_reply_reader);
  ASSERT_TRUE(push_reply_reader.finish().ok());
  EXPECT_EQ(push_reply_back.files[1].have, push_reply.files[1].have);
  util::ByteReader pull_reader{pull_wire};
  pull_reader.u8();
  BundlePullOpenRequest pull_back =
      BundlePullOpenRequest::decode(Role::kPeerPull, pull_reader);
  ASSERT_TRUE(pull_reader.finish().ok());
  EXPECT_EQ(pull_back.names, pull.names);
  util::ByteReader pull_reply_reader{pull_reply_wire};
  BundlePullOpenReply pull_reply_back =
      BundlePullOpenReply::decode(pull_reply_reader);
  ASSERT_TRUE(pull_reply_reader.finish().ok());
  EXPECT_EQ(pull_reply_back.files[0].digests, pull_reply.files[0].digests);
  util::ByteReader manifest_reader{manifest_record};
  BundleManifest manifest_back = BundleManifest::decode(manifest_reader);
  ASSERT_TRUE(manifest_reader.finish().ok());
  EXPECT_EQ(manifest_back.principal, manifest.principal);
}

// Each body that carries the chunk-size field decodes as written, and
// fails its reader once the field names any size but 1 MiB.
TEST(XferWire, DecodersRefuseEveryOtherChunkSize) {
  BundleOpenRequest push;
  push.key = kKey;
  push.token = 7;
  push.files.push_back({"f", 5, crypto::Digest{}, false, {}});
  BundleOpenReply push_reply{9, 3, {{true, {}}}};
  BundlePullOpenRequest pull;
  pull.token = 7;
  pull.names = {"a"};
  BundlePullOpenReply pull_reply;
  pull_reply.transfer_id = 5;
  pull_reply.files.push_back({3, crypto::Digest{}, true, {}});
  BundleManifest manifest;
  manifest.key = kKey;
  manifest.token = 7;
  manifest.files.push_back({"f", 5, crypto::Digest{}, true});
  util::ByteWriter manifest_record;
  manifest.encode(manifest_record);

  struct Case {
    const char* name;
    util::Bytes wire;
    std::size_t offset;  // of the chunk-size field
    std::function<void(util::ByteReader&)> decode;
  };
  const std::vector<Case> cases{
      {"push open", push.encode(), 14,
       [](util::ByteReader& r) {
         r.u8();
         (void)BundleOpenRequest::decode(r);
       }},
      {"push open reply", push_reply.encode(), 8,
       [](util::ByteReader& r) { (void)BundleOpenReply::decode(r); }},
      {"pull open", pull.encode(), 9,
       [](util::ByteReader& r) {
         r.u8();
         (void)BundlePullOpenRequest::decode(Role::kPeerPull, r);
       }},
      {"pull open reply", pull_reply.encode(), 9,
       [](util::ByteReader& r) { (void)BundlePullOpenReply::decode(r); }},
      {"bundle manifest record", manifest_record.take(), 13,
       [](util::ByteReader& r) { (void)BundleManifest::decode(r); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(util::Bytes(c.wire.begin() + c.offset,
                          c.wire.begin() + c.offset + 4),
              kOneMiB);
    util::ByteReader as_written{c.wire};
    c.decode(as_written);
    EXPECT_TRUE(as_written.finish().ok());
    for (std::uint32_t other : {64u << 10, 0u, 0xffffffffu}) {
      SCOPED_TRACE(other);
      const util::Bytes wire = testing::splice_u32(c.wire, c.offset, other);
      util::ByteReader r{wire};
      c.decode(r);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.finish().error().code, util::ErrorCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace unicore::xfer
