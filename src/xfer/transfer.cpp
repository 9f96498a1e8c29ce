#include "xfer/transfer.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

namespace unicore::xfer {

using util::ErrorCode;
using util::make_error;

namespace {

/// Errors that mean the receiver no longer knows our ephemeral transfer
/// id (it crashed, or evicted the transfer) — the cure is a re-open by
/// durable key, not a retransmit of the same request.
bool needs_resume(ErrorCode code) {
  return code == ErrorCode::kNotFound || code == ErrorCode::kFailedPrecondition;
}

/// Decodes a reply body; a truncated or garbled one yields nothing
/// instead of throwing into the transport's callback.
template <typename T>
std::optional<T> decode_reply(const util::Bytes& body) {
  try {
    util::ByteReader r{body};
    return T::decode(r);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

/// One (file index, chunk index) unit of work.
using ChunkId = std::pair<std::uint32_t, std::uint64_t>;

/// Result sink of one wire bundle (pushes report no blobs).
using Finish = std::function<void(util::Result<PullResult>)>;

/// One wire bundle in either direction: the open, the windowed credit
/// loop over its missing chunks, the close, and the retry → resume →
/// fail ladder around all three. A push sends chunks and reads acks; a
/// pull requests chunks and assembles them.
class Run : public std::enable_shared_from_this<Run> {
 public:
  Run(TransferManager& mgr, std::shared_ptr<ChunkTransport> transport,
      const PushSpec& spec, std::vector<BundleFile> files,
      const TransferOptions& options, Finish done)
      : Run(mgr, std::move(transport), spec.role, spec.token, options,
            std::move(done)) {
    source_ = spec.source;
    files_ = std::move(files);
  }

  Run(TransferManager& mgr, std::shared_ptr<ChunkTransport> transport,
      const PullSpec& spec, std::vector<std::string> names,
      const TransferOptions& options, Finish done)
      : Run(mgr, std::move(transport), spec.role, spec.token, options,
            std::move(done)) {
    names_ = std::move(names);
    store_ = spec.store;
  }

  void start() {
    stats_.started_at = mgr_.engine().now();
    stats_.streams = transport_->streams();
    stats_.bundles = 1;
    stats_.files = push_ ? files_.size() : names_.size();
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_active_transfers", labels()).add(1);
    if (push_) {
      // The entries (including every per-chunk digest) are computed
      // once and reused across resumes — and they define the durable
      // key.
      entries_.reserve(files_.size());
      for (const BundleFile& file : files_) {
        stats_.bytes += file.blob->size();
        BundleFileEntry entry;
        entry.name = file.name;
        entry.size = file.blob->size();
        entry.checksum = file.blob->checksum();
        entry.synthetic = file.blob->is_synthetic();
        entry.digests = file.blob->chunk_digests(options_.chunk_bytes);
        entries_.push_back(std::move(entry));
      }
      key_ = make_bundle_key(source_, token_, entries_);
    }
    send_open();
  }

 private:
  Run(TransferManager& mgr, std::shared_ptr<ChunkTransport> transport,
      Role role, ajo::JobToken token, const TransferOptions& options,
      Finish done)
      : mgr_(mgr),
        transport_(std::move(transport)),
        role_(role),
        push_(role_is_push(role)),
        token_(token),
        options_(options),
        done_cb_(std::move(done)) {}

  obs::Labels labels() const {
    return {{"usite", mgr_.site()}, {"direction", push_ ? "push" : "pull"}};
  }

  /// Pushes honour the receiver's credit; a pull has none (the puller's
  /// own window is the limit), so its credit stays unbounded.
  std::uint32_t window_limit() const {
    auto window = static_cast<std::uint32_t>(transport_->streams()) *
                  options_.window_per_stream;
    return std::min(window, std::max<std::uint32_t>(credit_, 1));
  }

  void call(std::size_t stream, Op op, util::Bytes body,
            std::function<void(Run&, util::Result<util::Bytes>)> handle) {
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    transport_->call(stream, op, std::move(body),
                     [self, gen, handle = std::move(handle)](
                         util::Result<util::Bytes> reply) {
                       if (self->finished_ || gen != self->generation_)
                         return;  // stale: from before a resume
                       handle(*self, std::move(reply));
                     });
  }

  void send_open() {
    util::Bytes body;
    if (push_) {
      BundleOpenRequest request;
      request.role = role_;
      request.key = key_;
      request.token = token_;
      request.proposed_chunk_bytes = options_.chunk_bytes;
      request.files = entries_;
      body = request.encode();
    } else {
      BundlePullOpenRequest request;
      request.role = role_;
      request.token = token_;
      request.proposed_chunk_bytes = options_.chunk_bytes;
      request.inline_limit = options_.pull_inline_limit;
      request.names = names_;
      body = request.encode();
    }
    call(0, Op::kOpen, std::move(body),
         [](Run& run, util::Result<util::Bytes> reply) {
           run.on_open_reply(std::move(reply));
         });
  }

  void on_open_reply(util::Result<util::Bytes> reply) {
    if (!reply.ok()) {
      if (util::is_retryable(reply.error().code))
        resume("open failed: " + reply.error().to_string());
      else
        fail(reply.error());  // fallback decisions belong to the caller
      return;
    }
    if (push_)
      open_push(reply.value());
    else
      open_pull(reply.value());
  }

  void open_push(const util::Bytes& body) {
    auto open = decode_reply<BundleOpenReply>(body);
    if (!open || open->files.size() != files_.size()) {
      resume("malformed open reply");
      return;
    }
    transfer_id_ = open->transfer_id;
    chunk_bytes_ = open->chunk_bytes;
    credit_ = open->credit;
    queue_.clear();
    for (std::uint32_t i = 0; i < files_.size(); ++i) {
      std::uint64_t total = chunk_count(files_[i].blob->size(), chunk_bytes_);
      ChunkBitmap acked(total);
      // The receiver's journal is the truth.
      if (open->files[i].complete)
        acked.apply({ChunkRange{0, total}});
      else
        acked.apply(open->files[i].have);
      if (!opened_) stats_.deduped += acked.count();
      for (std::uint64_t index : acked.missing()) queue_.push_back({i, index});
    }
    opened_ = true;
    run_window();
  }

  void open_pull(const util::Bytes& body) {
    auto open = decode_reply<BundlePullOpenReply>(body);
    std::size_t files = !open               ? 0
                        : open->inline_blob ? 1
                                            : open->files.size();
    if (!open || files != names_.size()) {
      resume("malformed open reply");
      return;
    }
    if (open->inline_blob) {
      stats_.inlined = true;
      stats_.bytes = open->inline_blob->size();
      std::vector<uspace::FileBlob> blobs;
      blobs.push_back(std::move(*open->inline_blob));
      finish(std::move(blobs));
      return;
    }
    transfer_id_ = open->transfer_id;
    if (assemblies_.empty()) {
      assemblies_.reserve(open->files.size());
      for (const BundlePullFileInfo& info : open->files) {
        Assembly assembly(info.size, info.checksum, info.synthetic,
                          open->chunk_bytes);
        if (store_ != nullptr) assembly.attach_store(store_);
        assemblies_.push_back(std::move(assembly));
        stats_.bytes += info.size;
      }
    } else {
      for (std::size_t i = 0; i < open->files.size(); ++i) {
        if (assemblies_[i].size() != open->files[i].size ||
            assemblies_[i].checksum() != open->files[i].checksum ||
            assemblies_[i].chunk_bytes() != open->chunk_bytes) {
          fail(make_error(ErrorCode::kFailedPrecondition,
                          "file identity changed across a pull resume"));
          return;
        }
      }
    }
    queue_.clear();
    for (std::uint32_t i = 0; i < assemblies_.size(); ++i) {
      // The per-file manifests let the local store satisfy warm chunks
      // before anything crosses the wire (re-checked on every resume:
      // the store may have gained chunks since).
      if (store_ != nullptr && !open->files[i].digests.empty() &&
          !assemblies_[i].complete())
        stats_.deduped +=
            assemblies_[i].satisfy_from_store(open->files[i].digests);
      for (std::uint64_t index : assemblies_[i].bitmap().missing())
        queue_.push_back({i, index});
    }
    run_window();
  }

  /// Starts the credit loop over the open's missing chunks.
  void run_window() {
    pos_ = 0;
    inflight_ = 0;
    landed_ = 0;
    if (queue_.empty())
      complete();
    else
      pump();
  }

  void pump() {
    while (pos_ < queue_.size() && inflight_ < window_limit())
      send_chunk(queue_[pos_++]);
  }

  void send_chunk(ChunkId id) {
    util::Bytes body;
    ++inflight_;
    auto* m = mgr_.metrics();
    if (push_) {
      BundleChunkRequest request;
      request.role = role_;
      request.transfer_id = transfer_id_;
      request.file_index = id.first;
      // The open manifest already holds this chunk's digest unless the
      // receiver clamped the chunk size it was computed at.
      const uspace::FileBlob& blob = *files_[id.first].blob;
      const std::vector<crypto::Digest>& digests = entries_[id.first].digests;
      request.chunk =
          chunk_bytes_ == options_.chunk_bytes && id.second < digests.size()
              ? make_chunk(blob, id.second, chunk_bytes_, digests[id.second])
              : make_chunk(blob, id.second, chunk_bytes_);
      ++stats_.chunks;
      if (m != nullptr) {
        m->counter("unicore_xfer_chunks_total", labels()).increment();
        m->counter("unicore_xfer_bytes_total", labels())
            .add(static_cast<double>(request.chunk.length));
      }
      body = request.encode();
    } else {
      BundlePullChunkRequest request;
      request.role = role_;
      request.transfer_id = transfer_id_;
      request.file_index = id.first;
      request.index = id.second;
      body = request.encode();
    }
    if (m != nullptr) m->gauge("unicore_xfer_inflight_chunks", labels()).add(1);
    std::size_t stream = next_stream_++ % transport_->streams();
    call(stream, Op::kChunk, std::move(body),
         [id](Run& run, util::Result<util::Bytes> reply) {
           run.on_chunk_reply(id, std::move(reply));
         });
  }

  void on_chunk_reply(ChunkId id, util::Result<util::Bytes> reply) {
    --inflight_;
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_inflight_chunks", labels()).add(-1);
    if (!reply.ok()) {
      if (needs_resume(reply.error().code))
        resume("chunk rejected: " + reply.error().to_string());
      else if (util::is_retryable(reply.error().code))
        retry_chunk(id);
      else
        fail(reply.error());
      return;
    }
    // A malformed ack, or a corrupt or malformed chunk, is
    // indistinguishable from a transient transport fault at this
    // layer: resend it (bounded).
    if (push_) {
      auto ack = decode_reply<BundleChunkReply>(reply.value());
      if (!ack) {
        retry_chunk(id);
        return;
      }
      credit_ = ack->credit;
      if (!ack->applied) ++stats_.duplicates;
    } else {
      auto chunk = decode_reply<Chunk>(reply.value());
      if (!chunk || chunk->index != id.second ||
          !assemblies_[id.first].accept(*chunk).ok()) {
        retry_chunk(id);
        return;
      }
      ++stats_.chunks;
      if (auto* m = mgr_.metrics()) {
        m->counter("unicore_xfer_chunks_total", labels()).increment();
        m->counter("unicore_xfer_bytes_total", labels())
            .add(static_cast<double>(chunk->length));
      }
    }
    // Every queued chunk is in flight at most once per generation, so
    // the last one landing means none is outstanding: a push's close
    // never races a straggling ack (which would 404 after the close).
    if (++landed_ == queue_.size())
      complete();
    else
      pump();
  }

  void retry_chunk(ChunkId id) {
    int attempt = ++chunk_attempts_[id];
    if (attempt > options_.max_chunk_retries) {
      resume("chunk retries exhausted");
      return;
    }
    ++stats_.retransmits;
    if (auto* m = mgr_.metrics())
      m->counter("unicore_xfer_retransmits_total", labels()).increment();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, attempt, mgr_.rng()),
        [self, gen, id] {
          if (self->finished_ || gen != self->generation_) return;
          self->send_chunk(id);
        });
  }

  void resume(const std::string& why) {
    if (++resume_attempts_ > options_.max_resume_attempts) {
      fail(make_error(ErrorCode::kUnavailable,
                      std::string(push_ ? "push" : "pull") +
                          " abandoned after " +
                          std::to_string(options_.max_resume_attempts) +
                          " resumes; last cause: " + why));
      return;
    }
    ++stats_.resumes;
    if (auto* m = mgr_.metrics()) {
      m->counter("unicore_xfer_resumes_total", labels()).increment();
      // Abandoned in-flight chunks never decrement the gauge themselves
      // (their replies carry a stale generation), so settle it here.
      m->gauge("unicore_xfer_inflight_chunks", labels())
          .add(-static_cast<double>(inflight_));
    }
    ++generation_;
    inflight_ = 0;
    chunk_attempts_.clear();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, resume_attempts_, mgr_.rng()),
        [self, gen] {
          if (self->finished_ || gen != self->generation_) return;
          // Re-open by durable key: a push learns from the reply which
          // chunks the receiver journaled; a pull's local assemblies
          // survive, so only missing chunks are re-requested.
          self->send_open();
        });
  }

  /// Every chunk is in place: a push commits with a close; a pull
  /// releases the source's read and verifies its assemblies.
  void complete() {
    BundleCloseRequest request;
    request.role = role_;
    request.transfer_id = transfer_id_;
    if (push_) {
      request.key = key_;
      call(0, Op::kClose, request.encode(),
           [](Run& run, util::Result<util::Bytes> reply) {
             run.on_close_reply(std::move(reply));
           });
      return;
    }
    // Best-effort: the source's read also expires on idle, so the
    // reply (or its loss) is irrelevant.
    transport_->call(0, Op::kClose, request.encode(),
                     [](util::Result<util::Bytes>) {});
    std::vector<uspace::FileBlob> blobs;
    blobs.reserve(assemblies_.size());
    for (Assembly& assembly : assemblies_) {
      util::Result<uspace::FileBlob> blob = assembly.finish();
      if (!blob.ok()) {
        fail(blob.error());
        return;
      }
      blobs.push_back(std::move(blob).value());
    }
    finish(std::move(blobs));
  }

  void on_close_reply(util::Result<util::Bytes> reply) {
    if (!reply.ok()) {
      if (needs_resume(reply.error().code) ||
          util::is_retryable(reply.error().code))
        resume("close failed: " + reply.error().to_string());
      else
        fail(reply.error());
      return;
    }
    finish({});
  }

  void finish(std::vector<uspace::FileBlob> blobs) {
    stats_.finished_at = mgr_.engine().now();
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      m->gauge("unicore_xfer_active_transfers", labels()).add(-1);
      count_result(*m, "ok");
      m->histogram("unicore_xfer_transfer_seconds", labels(),
                   obs::latency_buckets())
          .observe(sim::to_seconds(stats_.finished_at - stats_.started_at));
    }
    done_cb_(PullResult{std::move(blobs), stats_});
  }

  void fail(util::Error error) {
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      m->gauge("unicore_xfer_active_transfers", labels()).add(-1);
      count_result(*m, "error");
    }
    done_cb_(std::move(error));
  }

  void count_result(obs::MetricsRegistry& m, const char* result) const {
    obs::Labels labels = this->labels();
    labels.emplace_back("result", result);
    m.counter("unicore_xfer_transfers_total", labels).increment();
  }

  TransferManager& mgr_;
  std::shared_ptr<ChunkTransport> transport_;
  Role role_;
  bool push_;
  ajo::JobToken token_;
  TransferOptions options_;
  Finish done_cb_;

  // Push: the files, their open-time entries (cached across resumes),
  // and the durable key they define.
  std::string source_;
  std::vector<BundleFile> files_;
  std::vector<BundleFileEntry> entries_;
  util::Bytes key_;
  std::uint32_t chunk_bytes_ = kDefaultChunkBytes;
  bool opened_ = false;
  // Pull: the names and their assemblies (which survive resumes).
  std::vector<std::string> names_;
  std::shared_ptr<store::ChunkStore> store_;
  std::vector<Assembly> assemblies_;

  std::uint64_t transfer_id_ = 0;
  std::uint32_t credit_ = std::numeric_limits<std::uint32_t>::max();
  std::vector<ChunkId> queue_;  // the open's missing chunks
  std::size_t pos_ = 0;         // next queue_ entry to send
  std::size_t landed_ = 0;      // queue_ entries acked / accepted
  std::uint32_t inflight_ = 0;
  std::size_t next_stream_ = 0;
  std::map<ChunkId, int> chunk_attempts_;
  int resume_attempts_ = 0;
  std::uint64_t generation_ = 0;
  bool finished_ = false;
  TransferStats stats_;
};

void merge(PullResult& total, PullResult slice) {
  TransferStats& into = total.stats;
  const TransferStats& stats = slice.stats;
  if (into.bundles == 0) into.started_at = stats.started_at;
  into.files += stats.files;
  into.bytes += stats.bytes;
  into.chunks += stats.chunks;
  into.deduped += stats.deduped;
  into.duplicates += stats.duplicates;
  into.retransmits += stats.retransmits;
  into.resumes += stats.resumes;
  into.bundles += stats.bundles;
  into.streams = std::max(into.streams, stats.streams);
  into.inlined = into.inlined || stats.inlined;
  into.finished_at = stats.finished_at;
  for (uspace::FileBlob& blob : slice.blobs)
    total.blobs.push_back(std::move(blob));
}

/// Runs `count` files as sequential wire bundles of at most
/// kMaxBundleFiles — each reuses the transport's streams at full window
/// instead of competing — and aggregates their results.
/// `start(first, n, finish)` launches the bundle over [first, first + n).
class Slices : public std::enable_shared_from_this<Slices> {
 public:
  using Start = std::function<void(std::size_t, std::size_t, Finish)>;

  Slices(std::size_t count, Start start, Finish done)
      : count_(count), start_(std::move(start)), done_(std::move(done)) {}

  void advance() {
    std::size_t first = next_;
    std::size_t n = std::min<std::size_t>(count_ - first, kMaxBundleFiles);
    next_ += n;
    start_(first, n, [self = shared_from_this()](
                         util::Result<PullResult> slice) {
      if (!slice.ok()) {
        self->done_(slice.error());
        return;
      }
      merge(self->total_, std::move(slice).value());
      if (self->next_ < self->count_)
        self->advance();
      else
        self->done_(std::move(self->total_));
    });
  }

 private:
  std::size_t count_;
  Start start_;
  Finish done_;
  std::size_t next_ = 0;
  PullResult total_;
};

}  // namespace

void TransferManager::push(
    std::shared_ptr<ChunkTransport> transport, const PushSpec& spec,
    std::vector<BundleFile> files, const TransferOptions& options,
    std::function<void(util::Result<TransferStats>)> done) {
  if (files.empty()) {
    TransferStats stats;
    stats.started_at = engine_.now();
    stats.finished_at = stats.started_at;
    done(stats);
    return;
  }
  auto all = std::make_shared<std::vector<BundleFile>>(std::move(files));
  auto slices = std::make_shared<Slices>(
      all->size(),
      [this, transport = std::move(transport), spec, all, options](
          std::size_t first, std::size_t n, Finish finish) {
        std::vector<BundleFile> slice(
            std::make_move_iterator(all->begin() + first),
            std::make_move_iterator(all->begin() + first + n));
        std::make_shared<Run>(*this, transport, spec, std::move(slice),
                              options, std::move(finish))
            ->start();
      },
      [done = std::move(done)](util::Result<PullResult> result) {
        if (!result.ok())
          done(result.error());
        else
          done(result.value().stats);
      });
  slices->advance();
}

void TransferManager::pull(std::shared_ptr<ChunkTransport> transport,
                           const PullSpec& spec, const TransferOptions& options,
                           std::function<void(util::Result<PullResult>)> done) {
  if (spec.names.empty()) {
    PullResult result;
    result.stats.started_at = engine_.now();
    result.stats.finished_at = result.stats.started_at;
    done(std::move(result));
    return;
  }
  auto slices = std::make_shared<Slices>(
      spec.names.size(),
      [this, transport = std::move(transport), spec, options](
          std::size_t first, std::size_t n, Finish finish) {
        std::vector<std::string> names(spec.names.begin() + first,
                                       spec.names.begin() + first + n);
        std::make_shared<Run>(*this, transport, spec, std::move(names),
                              options, std::move(finish))
            ->start();
      },
      std::move(done));
  slices->advance();
}

}  // namespace unicore::xfer
