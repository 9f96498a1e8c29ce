// The sender/receiver-driver half of the chunked transfer engine: a
// TransferManager that pushes files into a remote Uspace, or pulls
// them out of it, as independently acknowledged chunks striped over
// parallel streams. Every transfer is a bundle: one open covers up to
// kMaxBundleFiles files (a single file is a bundle of one), larger
// trees run as sequential bundles.
//
// The engine sits below the server layer, so it talks through an
// abstract ChunkTransport: stream s, operation op, opaque body. The
// server binds streams to parallel secure channels, which share the
// link between the two gateways but keep a window of chunks in flight
// on each; tests bind them to an in-process loopback.
//
// Failure handling has two tiers. A failed chunk is retransmitted on
// its own (bounded retries with backoff); a failure that outlives
// retransmission — or a receiver crash that invalidates the ephemeral
// transfer id — triggers a *resume*: re-open by durable key, learn
// which chunks the receiver already journaled, and send only the rest.
// Acknowledgements from before a resume carry a stale generation and
// are ignored. A reply body that does not decode counts as a failed
// chunk (or, for an open, a failed open).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "uspace/blob.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/rng.h"
#include "xfer/chunk.h"
#include "xfer/wire.h"

namespace unicore::xfer {

/// How the engine reaches the peer: `streams()` parallel lanes, each
/// carrying request/reply exchanges of the three transfer operations.
/// Implementations own framing, security, and timeouts; the engine owns
/// retries and resume.
class ChunkTransport {
 public:
  virtual ~ChunkTransport() = default;
  virtual std::size_t streams() const = 0;
  virtual void call(std::size_t stream, Op op, util::Bytes body,
                    std::function<void(util::Result<util::Bytes>)> done) = 0;
};

struct TransferOptions {
  std::uint32_t window_per_stream = 4;  // unacked chunks per stream
  int max_resume_attempts = 5;          // open/resume ladder
  int max_chunk_retries = 3;            // per-chunk retransmits before resume
  util::BackoffPolicy backoff;          // between resumes / retransmits
  /// Pull only: ask the source to inline a lone file at or below this
  /// size in the open reply (single round trip, no chunk traffic).
  std::uint32_t pull_inline_limit = 256 * 1024;
};

/// What one transfer (one or more wire bundles) did, for benches and
/// metrics.
struct TransferStats {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;       // chunks moved this run (not resumed-over)
  std::uint64_t deduped = 0;      // chunks the open round trip settled
  std::uint64_t duplicates = 0;   // chunks the receiver already had
  std::uint64_t retransmits = 0;  // chunk-level retries
  std::uint64_t resumes = 0;      // re-opens after failure
  std::uint64_t bundles = 0;      // wire bundles (large trees slice)
  std::uint64_t streams = 0;      // lanes available
  bool inlined = false;           // pull answered inside the open reply
  sim::Time started_at = 0;
  sim::Time finished_at = 0;
};

/// One file of a push.
struct BundleFile {
  std::string name;
  std::shared_ptr<const uspace::FileBlob> blob;
};

/// Where a push goes and where it comes from. The source label and the
/// files key the durable bundle key, so the same files re-pushed from
/// the same site resume (or hit the commit tombstone) instead of
/// restarting.
struct PushSpec {
  std::string source;  // sending Usite name (or "client:<cn>")
  ajo::JobToken token = 0;
  Role role = Role::kPush;  // kPush (NJS–NJS) or kClientPush (staging)
};

struct PullSpec {
  Role role = Role::kPeerPull;  // kPeerPull or kClientPull
  ajo::JobToken token = 0;
  std::vector<std::string> names;
  /// Optional local chunk store: chunks the open reply's digest
  /// manifests say we already hold are satisfied without a request.
  std::shared_ptr<store::ChunkStore> store;
};

struct PullResult {
  std::vector<uspace::FileBlob> blobs;  // aligned with spec.names
  TransferStats stats;
};

/// Drives pushes and pulls. One manager per endpoint (Usite server or
/// client); transfers run concurrently and independently.
class TransferManager {
 public:
  TransferManager(sim::Engine& engine, util::Rng& rng)
      : engine_(engine), rng_(rng) {}

  /// `site` labels the series. Each series is looked up on its first
  /// use and recorded through its handle after that; this drops every
  /// handle, so a registry swap takes effect immediately.
  void set_metrics(obs::MetricsRegistry* metrics, std::string site) {
    metrics_ = metrics;
    site_ = std::move(site);
    series_ = {};
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// The unicore_xfer_*{usite, direction} series of one direction.
  struct Series {
    obs::Gauge* active_transfers = nullptr;
    obs::Gauge* inflight_chunks = nullptr;
    obs::Counter* chunks = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* retransmits = nullptr;
    obs::Counter* resumes = nullptr;
    obs::Counter* transfers_ok = nullptr;  // unicore_xfer_transfers_total
    obs::Counter* transfers_error = nullptr;
    obs::Histogram* transfer_seconds = nullptr;
  };
  Series& series(bool push) { return series_[push ? 1 : 0]; }
  const std::string& site() const { return site_; }
  sim::Engine& engine() const { return engine_; }
  util::Rng& rng() const { return rng_; }

  /// Streams `files` into job `spec.token`'s Uspace on the peer behind
  /// `transport`: per bundle of up to kMaxBundleFiles files, one open
  /// whose reply dedups the whole batch, interleaved chunks sharing one
  /// credit window, and one close. The stats aggregate every bundle;
  /// the callback fires exactly once.
  void push(std::shared_ptr<ChunkTransport> transport, const PushSpec& spec,
            std::vector<BundleFile> files, const TransferOptions& options,
            std::function<void(util::Result<TransferStats>)> done);

  /// Fetches `spec.names` from job `spec.token`'s Uspace on the peer,
  /// per bundle of up to kMaxBundleFiles names. The open reply's
  /// per-file digest manifests let `spec.store` satisfy warm chunks
  /// locally; a lone small file comes back inside the open reply. The
  /// callback fires exactly once.
  void pull(std::shared_ptr<ChunkTransport> transport, const PullSpec& spec,
            const TransferOptions& options,
            std::function<void(util::Result<PullResult>)> done);

 private:
  sim::Engine& engine_;
  util::Rng& rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string site_;
  std::array<Series, 2> series_{};  // pull, push
};

}  // namespace unicore::xfer
