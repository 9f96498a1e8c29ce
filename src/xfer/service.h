// Receiver/source side of the chunked transfer protocol, co-resident
// with one NJS. Holds the open-transfer table: inbound bundles being
// reassembled (journaled chunk-by-chunk so a crash resumes instead of
// restarting) and outbound reads being served chunk-wise to pullers.
// A single file is a bundle of one.
//
// The server layer owns the envelopes and authentication; it hands this
// service the authenticated principal, the already-parsed Role byte,
// and a reader positioned at the body. Every handler returns the reply
// payload or the error to put in the reply envelope.
//
// Idempotency invariants:
//   - a chunk is journaled before it is acknowledged, so a crash
//     between the two re-delivers a chunk the journal already holds;
//     the resumed transfer answers it `applied = false` and never
//     applies a byte twice;
//   - a close after commit (or after a crash that followed the commit)
//     succeeds idempotently via the kXferBundleDone tombstone.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "njs/njs.h"
#include "sim/engine.h"
#include "util/result.h"
#include "xfer/chunk.h"
#include "xfer/manifest.h"
#include "xfer/wire.h"

namespace unicore::xfer {

class Service : public njs::CrashParticipant {
 public:
  struct Limits {
    std::uint32_t min_chunk_bytes = kMinChunkBytes;
    std::uint32_t max_chunk_bytes = kMaxChunkBytes;
    /// Cap on buffered-but-unfinished inbound payload; the advertised
    /// credit shrinks as this fills (backpressure).
    std::uint64_t buffer_limit_bytes = 64ull * 1024 * 1024;
    std::uint32_t max_credit = 64;
    /// Hard cap on what a one-file pull open may inline.
    std::uint32_t inline_limit = 256 * 1024;
    /// Outbound reads with no chunk request for this long are dropped
    /// (pullers that died without closing).
    sim::Time read_idle_timeout = sim::sec(300);
  };

  Service(sim::Engine& engine, njs::Njs& njs) : engine_(engine), njs_(njs) {}

  void set_limits(const Limits& limits) { limits_ = limits; }
  const Limits& limits() const { return limits_; }

  /// Places this service's transfer ids at partition `p` of the id
  /// space (striding mirrors njs::kTokenPartitionShift), so the server
  /// layer can route a chunk or close by its transfer id to the NJS
  /// replica whose service minted it. Call before the first open.
  void set_id_partition(std::uint64_t partition) {
    next_id_ = (partition << njs::kTokenPartitionShift) + 1;
  }

  /// Attaches the site's content-addressed store: inbound assemblies
  /// intern chunks into it, and push opens carrying digest manifests
  /// are satisfied from it (already-present chunks are acked in the
  /// open reply without moving a payload byte).
  void set_chunk_store(std::shared_ptr<store::ChunkStore> chunk_store) {
    store_ = std::move(chunk_store);
  }
  const std::shared_ptr<store::ChunkStore>& chunk_store() const {
    return store_;
  }

  /// Request handlers (kXferBundleOpen / kXferChunk / kXferBundleClose).
  /// `principal` is the authenticated identity (user DN or peer server
  /// DN); `server_peer` says which authentication path the gateway
  /// used; `r` is positioned just after the Role byte.
  util::Result<util::Bytes> open(const crypto::DistinguishedName& principal,
                                 bool server_peer, Role role,
                                 util::ByteReader& r);
  util::Result<util::Bytes> chunk(const crypto::DistinguishedName& principal,
                                  bool server_peer, Role role,
                                  util::ByteReader& r);
  util::Result<util::Bytes> close(const crypto::DistinguishedName& principal,
                                  bool server_peer, Role role,
                                  util::ByteReader& r);

  // CrashParticipant: the table dies with the NJS process and is
  // rebuilt from the journal; an adopted journal's half-finished
  // transfers fold in beside the live ones (handoff).
  void on_njs_crash() override;
  void on_njs_recover() override;
  void on_njs_adopt(const njs::Journal& journal) override;

  // Introspection for tests and gauges.
  std::size_t inbound_open() const { return incoming_.size(); }
  std::size_t outbound_open() const { return outgoing_.size(); }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  std::uint64_t chunks_applied() const { return chunks_applied_; }
  std::uint64_t chunks_deduped() const { return chunks_deduped_; }
  std::uint64_t transfers_completed() const { return transfers_completed_; }
  std::uint64_t transfers_recovered() const { return transfers_recovered_; }
  std::uint64_t files_delivered() const { return files_delivered_; }
  /// Payload bytes buffered by every open inbound assembly, recounted by
  /// walking them (the running total behind the receive window and the
  /// unicore_xfer_buffered_bytes gauge must always equal it).
  std::uint64_t buffered_in_assemblies() const;

 private:
  /// One inbound bundle: per-file assemblies sharing one manifest, one
  /// journal, and one credit window. Files deliver eagerly as their
  /// last chunk lands (delivered[i] guards idempotency; the drained
  /// assembly slot is reset so it stops counting against the window).
  struct Incoming {
    BundleManifest manifest;
    std::vector<Assembly> assemblies;  // aligned with manifest.files
    std::vector<bool> delivered;
    std::uint64_t id = 0;
    sim::Time opened_at = 0;
  };
  struct Outgoing {
    std::uint64_t id = 0;
    std::uint32_t chunk_bytes = kDefaultChunkBytes;
    std::vector<std::shared_ptr<const uspace::FileBlob>> blobs;
    sim::EventId expiry = 0;
  };

  util::Result<util::Bytes> open_push(
      const crypto::DistinguishedName& principal, Role role,
      util::ByteReader& r);
  util::Result<util::Bytes> open_pull(
      const crypto::DistinguishedName& principal, Role role,
      util::ByteReader& r);
  util::Result<util::Bytes> push_chunk(
      const crypto::DistinguishedName& principal, Incoming& incoming,
      util::ByteReader& r);
  util::Result<util::Bytes> close_push(
      const crypto::DistinguishedName& principal, Role role,
      util::ByteReader& r);

  std::uint32_t clamp_chunk_bytes(std::uint32_t proposed) const;
  std::uint32_t credit_for_bytes(std::uint32_t chunk_bytes) const;
  static std::uint64_t buffered_in(const Incoming& incoming);
  BundleOpenReply resume_reply(const Incoming& incoming) const;
  void touch_outgoing(Outgoing& outgoing);
  void update_gauges();
  void fold_journal(const njs::Journal& journal);
  /// Assembly::accept, keeping the buffered total in step.
  util::Status accept_chunk(Assembly& assembly, const Chunk& chunk);

  /// Store-dedups every still-missing chunk of every undelivered file
  /// and eagerly delivers files that complete; returns chunks satisfied.
  std::uint64_t satisfy_open(Incoming& incoming,
                             const BundleOpenRequest& request);
  /// Finishes assembly `index` and hands the file to the NJS; resets
  /// the assembly slot on success.
  util::Status deliver_file(Incoming& incoming, std::uint32_t index);

  sim::Engine& engine_;
  njs::Njs& njs_;
  Limits limits_;
  std::shared_ptr<store::ChunkStore> store_;

  std::map<util::Bytes, std::unique_ptr<Incoming>> incoming_;  // by key
  std::map<std::uint64_t, Incoming*> incoming_by_id_;
  std::set<util::Bytes> completed_;  // committed bundle keys
  std::map<std::uint64_t, Outgoing> outgoing_;
  std::uint64_t next_id_ = 1;
  /// Sum of buffered_bytes() over every inbound assembly: updated where
  /// an assembly buffers or drains and where a transfer leaves the table,
  /// so a chunk never walks the open transfers to find it.
  std::uint64_t buffered_ = 0;

  /// The unicore_xfer_* table gauges, looked up once per registry.
  struct Gauges {
    const obs::MetricsRegistry* registry = nullptr;
    obs::Gauge* open_inbound = nullptr;
    obs::Gauge* open_outbound = nullptr;
    obs::Gauge* buffered_bytes = nullptr;
  } gauges_;

  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t chunks_applied_ = 0;
  std::uint64_t chunks_deduped_ = 0;
  std::uint64_t transfers_completed_ = 0;
  std::uint64_t transfers_recovered_ = 0;
  std::uint64_t files_delivered_ = 0;
};

}  // namespace unicore::xfer
