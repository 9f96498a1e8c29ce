#include "xfer/service.h"

#include <algorithm>
#include <utility>

namespace unicore::xfer {

using util::Bytes;
using util::ErrorCode;
using util::make_error;
using util::Result;

namespace {

/// The Role byte must match the authentication path the gateway took:
/// NJS–NJS roles need a peer server certificate, JPA/JMC roles a user
/// certificate. The service enforces it independently of the gateway.
util::Status check_role(Role role, bool server_peer) {
  switch (role) {
    case Role::kPush:
    case Role::kPeerPull:
      if (!server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          role == Role::kPush
                              ? "push requires a peer server certificate"
                              : "peer pull requires a peer server certificate");
      return util::Status();
    case Role::kClientPush:
    case Role::kClientPull:
      if (server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          role == Role::kClientPush
                              ? "client push requires a user certificate"
                              : "client pull requires a user certificate");
      return util::Status();
  }
  return make_error(ErrorCode::kInvalidArgument, "unknown transfer role");
}

}  // namespace

std::uint32_t Service::clamp_chunk_bytes(std::uint32_t proposed) const {
  return std::clamp(proposed, limits_.min_chunk_bytes,
                    limits_.max_chunk_bytes);
}

std::uint64_t Service::buffered_in_assemblies() const {
  std::uint64_t total = 0;
  for (const auto& [key, incoming] : incoming_)
    total += buffered_in(*incoming);
  return total;
}

std::uint64_t Service::buffered_in(const Incoming& incoming) {
  std::uint64_t total = 0;
  for (const Assembly& assembly : incoming.assemblies)
    total += assembly.buffered_bytes();
  return total;
}

std::uint32_t Service::credit_for_bytes(std::uint32_t chunk_bytes) const {
  std::uint64_t room = buffered_ < limits_.buffer_limit_bytes
                           ? limits_.buffer_limit_bytes - buffered_
                           : 0;
  std::uint64_t chunks = room / std::max<std::uint32_t>(chunk_bytes, 1);
  return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      chunks, 1, limits_.max_credit));  // never stall a sender completely
}

void Service::update_gauges() {
  obs::MetricsRegistry& m = *njs_.metrics();
  if (gauges_.registry != &m) {
    // The NJS may have moved to another registry since the last update.
    obs::Labels labels{{"usite", njs_.usite()}};
    gauges_.registry = &m;
    gauges_.open_inbound = &m.gauge("unicore_xfer_open_inbound", labels);
    gauges_.open_outbound = &m.gauge("unicore_xfer_open_outbound", labels);
    gauges_.buffered_bytes = &m.gauge("unicore_xfer_buffered_bytes", labels);
  }
  gauges_.open_inbound->set(static_cast<double>(incoming_.size()));
  gauges_.open_outbound->set(static_cast<double>(outgoing_.size()));
  gauges_.buffered_bytes->set(static_cast<double>(buffered_));
}

util::Status Service::accept_chunk(Assembly& assembly, const Chunk& chunk) {
  std::uint64_t before = assembly.buffered_bytes();
  util::Status accepted = assembly.accept(chunk);
  buffered_ += assembly.buffered_bytes() - before;
  return accepted;
}

util::Status Service::deliver_file(Incoming& incoming, std::uint32_t index) {
  auto blob = incoming.assemblies[index].finish();
  if (!blob.ok())
    return make_error(ErrorCode::kInternal,
                      "whole-file verification failed: " +
                          blob.error().message);
  auto status = njs_.deliver_file(
      incoming.manifest.token, incoming.manifest.files[index].name,
      std::make_shared<const uspace::FileBlob>(std::move(blob).value()));
  if (!status.ok()) return status.error();
  incoming.delivered[index] = true;
  // Free the drained buffers; delivered[] keeps re-deliveries duplicate.
  buffered_ -= incoming.assemblies[index].buffered_bytes();
  incoming.assemblies[index] = Assembly();
  ++files_delivered_;
  return util::Status();
}

std::uint64_t Service::satisfy_open(Incoming& incoming,
                                    const BundleOpenRequest& request) {
  // The sender's digest manifests are only meaningful at the
  // granularity they were computed for; a clamped chunk size
  // invalidates them.
  if (store_ == nullptr ||
      incoming.manifest.chunk_bytes != request.proposed_chunk_bytes)
    return 0;
  std::uint64_t satisfied = 0;
  for (std::uint32_t i = 0; i < incoming.assemblies.size(); ++i) {
    if (incoming.delivered[i] || request.files[i].digests.empty()) continue;
    satisfied += incoming.assemblies[i].satisfy_from_store(
        request.files[i].digests);
    // Fully warm files deliver straight from the open — the whole-batch
    // dedup that turns an unchanged tree into one RTT. A delivery
    // failure leaves the file complete-but-undelivered; close retries.
    if (incoming.assemblies[i].complete()) (void)deliver_file(incoming, i);
  }
  if (satisfied > 0) {
    chunks_deduped_ += satisfied;
    njs_.metrics()
        ->counter("unicore_xfer_dedup_chunks_total",
                  {{"usite", njs_.usite()}})
        .add(static_cast<double>(satisfied));
  }
  return satisfied;
}

BundleOpenReply Service::resume_reply(const Incoming& incoming) const {
  BundleOpenReply reply;
  reply.transfer_id = incoming.id;
  reply.chunk_bytes = incoming.manifest.chunk_bytes;
  reply.credit = credit_for_bytes(incoming.manifest.chunk_bytes);
  reply.files.resize(incoming.assemblies.size());
  for (std::size_t i = 0; i < incoming.assemblies.size(); ++i) {
    reply.files[i].complete =
        incoming.delivered[i] || incoming.assemblies[i].complete();
    if (!reply.files[i].complete)
      reply.files[i].have = incoming.assemblies[i].bitmap().ranges();
  }
  return reply;
}

Result<Bytes> Service::open(const crypto::DistinguishedName& principal,
                            bool server_peer, Role role, util::ByteReader& r) {
  njs_.metrics()
      ->counter("unicore_xfer_opens_total", {{"usite", njs_.usite()}})
      .increment();
  if (auto allowed = check_role(role, server_peer); !allowed.ok())
    return allowed.error();
  return role_is_push(role) ? open_push(principal, role, r)
                            : open_pull(principal, role, r);
}

Result<Bytes> Service::open_push(const crypto::DistinguishedName& principal,
                                 Role role, util::ByteReader& r) {
  BundleOpenRequest request = BundleOpenRequest::decode(r);
  request.role = role;
  if (request.files.empty() || request.files.size() > kMaxBundleFiles)
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file count out of range");

  if (completed_.count(request.key) != 0) {
    // Already committed (possibly before a crash): report every file
    // complete so the sender goes straight to close.
    BundleOpenReply reply;
    reply.transfer_id = 0;
    reply.chunk_bytes = clamp_chunk_bytes(request.proposed_chunk_bytes);
    reply.credit = 0;
    reply.files.resize(request.files.size());
    for (BundleFileState& file : reply.files) file.complete = true;
    return reply.encode();
  }

  if (auto it = incoming_.find(request.key); it != incoming_.end()) {
    Incoming& incoming = *it->second;
    if (incoming.manifest.principal != principal)
      return make_error(ErrorCode::kPermissionDenied,
                        "transfer belongs to another principal");
    if (incoming.manifest.files.size() != request.files.size())
      return make_error(ErrorCode::kFailedPrecondition,
                        "open does not match the journaled manifest");
    for (std::size_t i = 0; i < request.files.size(); ++i) {
      const BundleFileMeta& meta = incoming.manifest.files[i];
      const BundleFileEntry& entry = request.files[i];
      if (meta.name != entry.name || meta.size != entry.size ||
          meta.checksum != entry.checksum ||
          meta.synthetic != entry.synthetic)
        return make_error(ErrorCode::kFailedPrecondition,
                          "open does not match the journaled manifest");
    }
    // Chunks the store gained since the interruption (or that recovery
    // could not re-satisfy) are acked here instead of retransmitted.
    satisfy_open(incoming, request);
    return resume_reply(incoming).encode();
  }

  // New transfer: the target job must exist here (and, for a client
  // staging its own job, belong to the caller).
  auto owner = njs_.owner(request.token);
  if (!owner.ok()) return owner.error();
  if (role == Role::kClientPush && !(owner.value() == principal))
    return make_error(ErrorCode::kPermissionDenied,
                      "job belongs to another user");

  auto incoming = std::make_unique<Incoming>();
  incoming->manifest.key = request.key;
  incoming->manifest.token = request.token;
  incoming->manifest.chunk_bytes =
      clamp_chunk_bytes(request.proposed_chunk_bytes);
  incoming->manifest.principal = principal;
  incoming->manifest.files.reserve(request.files.size());
  incoming->assemblies.reserve(request.files.size());
  for (const BundleFileEntry& entry : request.files) {
    BundleFileMeta meta;
    meta.name = entry.name;
    meta.size = entry.size;
    meta.checksum = entry.checksum;
    meta.synthetic = entry.synthetic;
    incoming->manifest.files.push_back(std::move(meta));
    Assembly assembly(entry.size, entry.checksum, entry.synthetic,
                      incoming->manifest.chunk_bytes);
    if (store_ != nullptr) assembly.attach_store(store_);
    incoming->assemblies.push_back(std::move(assembly));
  }
  incoming->delivered.assign(request.files.size(), false);
  incoming->id = next_id_++;
  incoming->opened_at = engine_.now();
  // ONE durable record covers the whole bundle — the journal-side
  // amortization that pairs with the single open/close RTT.
  if (njs::Journal* journal = njs_.journal_for(incoming->manifest.token))
    journal_bundle_manifest(*journal, incoming->manifest);
  {
    auto& m = *njs_.metrics();
    obs::Labels labels{{"usite", njs_.usite()}};
    m.counter("unicore_xfer_bundle_files_total", labels)
        .add(static_cast<double>(request.files.size()));
    // Against one open + one close RTT per file, a bundle spends two
    // RTTs total: 2n - 2 saved.
    m.counter("unicore_xfer_rtts_saved_total", labels)
        .add(static_cast<double>(2 * request.files.size() - 2));
  }
  // Dedup at open: chunks the store already holds are reported in the
  // reply — for an unchanged dataset the sender goes straight to close
  // without pushing a byte of payload.
  satisfy_open(*incoming, request);

  BundleOpenReply reply = resume_reply(*incoming);
  incoming_by_id_[incoming->id] = incoming.get();
  incoming_.emplace(request.key, std::move(incoming));
  update_gauges();
  return reply.encode();
}

Result<Bytes> Service::open_pull(const crypto::DistinguishedName& principal,
                                 Role role, util::ByteReader& r) {
  BundlePullOpenRequest request = BundlePullOpenRequest::decode(role, r);
  if (request.names.empty() || request.names.size() > kMaxBundleFiles)
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file count out of range");
  if (role == Role::kClientPull) {
    auto owner = njs_.owner(request.token);
    if (!owner.ok()) return owner.error();
    if (!(owner.value() == principal))
      return make_error(ErrorCode::kPermissionDenied,
                        "job belongs to another user");
  }

  Outgoing outgoing;
  outgoing.blobs.reserve(request.names.size());
  for (const std::string& name : request.names) {
    auto blob = njs_.fetch_file_shared(request.token, name);
    if (!blob.ok()) return blob.error();
    outgoing.blobs.push_back(std::move(blob).value());
  }
  BundlePullOpenReply reply;
  if (outgoing.blobs.size() == 1 &&
      outgoing.blobs[0]->size() <=
          std::min(request.inline_limit, limits_.inline_limit)) {
    // A lone small file travels inside the reply: one round trip, no
    // transfer id, nothing to close.
    reply.inline_blob = *outgoing.blobs[0];
    return reply.encode();
  }

  outgoing.id = next_id_++;
  outgoing.chunk_bytes = clamp_chunk_bytes(request.proposed_chunk_bytes);
  reply.transfer_id = outgoing.id;
  reply.chunk_bytes = outgoing.chunk_bytes;
  reply.files.reserve(outgoing.blobs.size());
  for (const auto& blob : outgoing.blobs) {
    BundlePullFileInfo info;
    info.size = blob->size();
    info.checksum = blob->checksum();
    info.synthetic = blob->is_synthetic();
    // The reply's digests ARE the pull-path manifest negotiation: the
    // puller's store satisfies matching chunks without a request.
    info.digests = blob->chunk_digests(outgoing.chunk_bytes);
    reply.files.push_back(std::move(info));
  }
  auto [it, inserted] = outgoing_.emplace(outgoing.id, std::move(outgoing));
  touch_outgoing(it->second);
  update_gauges();
  return reply.encode();
}

Result<Bytes> Service::chunk(const crypto::DistinguishedName& principal,
                             bool server_peer, Role role, util::ByteReader& r) {
  if (auto allowed = check_role(role, server_peer); !allowed.ok())
    return allowed.error();
  // Unknown ids (e.g. stale after a crash) bail before the body is
  // decoded and answer kNotFound, which drives the sender's resume.
  std::uint64_t transfer_id = r.u64();
  if (role_is_push(role)) {
    auto it = incoming_by_id_.find(transfer_id);
    if (it == incoming_by_id_.end())
      return make_error(ErrorCode::kNotFound,
                        "no such transfer (receiver restarted?)");
    return push_chunk(principal, *it->second, r);
  }

  // Pull side: serve a chunk of an open outbound read.
  auto it = outgoing_.find(transfer_id);
  if (it == outgoing_.end())
    return make_error(ErrorCode::kNotFound,
                      "no such transfer (source restarted?)");
  BundlePullChunkRequest request =
      BundlePullChunkRequest::decode(role, transfer_id, r);
  Outgoing& outgoing = it->second;
  if (request.file_index >= outgoing.blobs.size())
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file index out of range");
  const uspace::FileBlob& blob = *outgoing.blobs[request.file_index];
  if (request.index >= chunk_count(blob.size(), outgoing.chunk_bytes))
    return make_error(ErrorCode::kInvalidArgument, "chunk index out of range");
  touch_outgoing(outgoing);
  Chunk chunk = make_chunk(blob, request.index, outgoing.chunk_bytes);
  util::ByteWriter w;
  chunk.encode(w);
  return w.take();
}

Result<Bytes> Service::push_chunk(const crypto::DistinguishedName& principal,
                                  Incoming& incoming, util::ByteReader& r) {
  BundleChunkRequest request = BundleChunkRequest::decode(incoming.id, r);
  if (incoming.manifest.principal != principal)
    return make_error(ErrorCode::kPermissionDenied,
                      "transfer belongs to another principal");
  if (request.file_index >= incoming.assemblies.size())
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file index out of range");
  Assembly& assembly = incoming.assemblies[request.file_index];

  BundleChunkReply reply;
  if (incoming.delivered[request.file_index] ||
      assembly.bitmap().test(request.chunk.index)) {
    // Idempotent re-delivery: journaled (and possibly acked) before a
    // crash or a lost ack. Never applied twice.
    ++duplicates_suppressed_;
    njs_.metrics()
        ->counter("unicore_xfer_duplicate_chunks_total",
                  {{"usite", njs_.usite()}})
        .increment();
    reply.applied = false;
    reply.credit = credit_for_bytes(incoming.manifest.chunk_bytes);
    return reply.encode();
  }
  if (!assembly.synthetic() &&
      buffered_ + request.chunk.length > limits_.buffer_limit_bytes)
    return make_error(ErrorCode::kResourceExhausted,
                      "receive window full");  // retryable: backs off

  if (util::Status accepted = accept_chunk(assembly, request.chunk);
      !accepted.ok())
    return accepted.error();
  // Write-ahead: the chunk must be durable before the ack can leave —
  // a crash after this append answers the retransmit as a duplicate.
  if (njs::Journal* journal = njs_.journal_for(incoming.manifest.token))
    journal_bundle_chunk(*journal, incoming.manifest, request.file_index,
                         request.chunk);
  ++chunks_applied_;
  // Files deliver eagerly as their last chunk lands — the close only
  // commits the bundle, it does not gate any file's visibility.
  if (assembly.complete()) {
    util::Status delivered = deliver_file(incoming, request.file_index);
    if (!delivered.ok()) return delivered.error();
  }
  update_gauges();
  reply.applied = true;
  reply.credit = credit_for_bytes(incoming.manifest.chunk_bytes);
  return reply.encode();
}

Result<Bytes> Service::close(const crypto::DistinguishedName& principal,
                             bool server_peer, Role role, util::ByteReader& r) {
  if (auto allowed = check_role(role, server_peer); !allowed.ok())
    return allowed.error();
  if (role_is_push(role)) return close_push(principal, role, r);
  BundleCloseRequest request = BundleCloseRequest::decode(role, r);
  if (auto it = outgoing_.find(request.transfer_id); it != outgoing_.end()) {
    if (it->second.expiry != 0) engine_.cancel(it->second.expiry);
    outgoing_.erase(it);
    update_gauges();
  }
  return Bytes{};  // idempotent: closing an unknown read is fine
}

Result<Bytes> Service::close_push(const crypto::DistinguishedName& principal,
                                  Role role, util::ByteReader& r) {
  BundleCloseRequest request = BundleCloseRequest::decode(role, r);
  if (completed_.count(request.key) != 0) return Bytes{};  // idempotent

  auto by_id = incoming_by_id_.find(request.transfer_id);
  Incoming* incoming = by_id != incoming_by_id_.end() ? by_id->second : nullptr;
  if (incoming == nullptr) {
    auto by_key = incoming_.find(request.key);
    if (by_key != incoming_.end()) incoming = by_key->second.get();
  }
  if (incoming == nullptr)
    return make_error(ErrorCode::kNotFound,
                      "no such transfer (receiver restarted?)");
  if (incoming->manifest.principal != principal)
    return make_error(ErrorCode::kPermissionDenied,
                      "transfer belongs to another principal");

  // Retry files whose delivery failed earlier (complete assemblies).
  std::size_t delivered_count = 0;
  for (std::uint32_t i = 0; i < incoming->assemblies.size(); ++i) {
    if (!incoming->delivered[i] && incoming->assemblies[i].complete()) {
      util::Status status = deliver_file(*incoming, i);
      if (!status.ok()) return status.error();
    }
    if (incoming->delivered[i]) ++delivered_count;
  }
  if (delivered_count != incoming->delivered.size())
    return make_error(
        ErrorCode::kFailedPrecondition,
        "transfer incomplete: " + std::to_string(delivered_count) + "/" +
            std::to_string(incoming->delivered.size()) + " files");

  if (njs::Journal* journal = njs_.journal_for(incoming->manifest.token))
    journal_bundle_done(*journal, incoming->manifest);
  std::uint64_t bytes = 0;
  for (const BundleFileMeta& file : incoming->manifest.files)
    bytes += file.size;
  njs_.record_transfer_span(
      incoming->manifest.token, "xfer-in", incoming->opened_at,
      engine_.now(),
      {{"files", std::to_string(incoming->manifest.files.size())},
       {"bytes", std::to_string(bytes)},
       {"from", incoming->manifest.principal.common_name}});
  ++transfers_completed_;
  util::Bytes key = incoming->manifest.key;  // copy: erase frees `incoming`
  completed_.insert(key);
  buffered_ -= buffered_in(*incoming);
  incoming_by_id_.erase(incoming->id);
  incoming_.erase(key);
  update_gauges();
  return Bytes{};
}

void Service::touch_outgoing(Outgoing& outgoing) {
  if (outgoing.expiry != 0) engine_.cancel(outgoing.expiry);
  std::uint64_t id = outgoing.id;
  outgoing.expiry = engine_.after(limits_.read_idle_timeout, [this, id] {
    outgoing_.erase(id);
    update_gauges();
  });
}

void Service::on_njs_crash() {
  // The process died: every in-memory table goes. The journal (a disk)
  // is what on_njs_recover rebuilds from.
  incoming_.clear();
  incoming_by_id_.clear();
  buffered_ = 0;
  completed_.clear();
  for (auto& [id, outgoing] : outgoing_)
    if (outgoing.expiry != 0) engine_.cancel(outgoing.expiry);
  outgoing_.clear();
  update_gauges();
}

void Service::on_njs_recover() {
  for (njs::Journal* journal : njs_.all_journals()) fold_journal(*journal);
}

void Service::on_njs_adopt(const njs::Journal& journal) {
  fold_journal(journal);
}

void Service::fold_journal(const njs::Journal& journal) {
  for (util::Bytes& key : completed_bundle_keys(journal))
    completed_.insert(std::move(key));
  for (RecoveredBundle& recovered : recover_bundles(journal)) {
    // Already live here (adopt fold beside open transfers) — keep it.
    if (incoming_.count(recovered.manifest.key) != 0) continue;
    // The target job must have survived recovery too.
    if (!njs_.owner(recovered.manifest.token).ok()) continue;
    auto incoming = std::make_unique<Incoming>();
    incoming->assemblies.reserve(recovered.manifest.files.size());
    for (const BundleFileMeta& meta : recovered.manifest.files) {
      Assembly assembly(meta.size, meta.checksum, meta.synthetic,
                        recovered.manifest.chunk_bytes);
      if (store_ != nullptr) assembly.attach_store(store_);
      incoming->assemblies.push_back(std::move(assembly));
    }
    incoming->delivered.assign(recovered.manifest.files.size(), false);
    incoming->manifest = std::move(recovered.manifest);
    incoming->id = next_id_++;  // fresh id: the old one is dead with the
                                // process, senders re-open by key
    incoming->opened_at = engine_.now();
    for (auto& [file_index, chunk] : recovered.chunks) {
      if (file_index >= incoming->assemblies.size()) continue;
      // Already verified and journaled; re-journaling would double the
      // log, so fold straight into the assembly.
      (void)accept_chunk(incoming->assemblies[file_index], chunk);
    }
    // Files whose last chunk landed before the crash re-deliver into
    // the (durable) workspace — idempotent, same file content.
    for (std::uint32_t i = 0; i < incoming->assemblies.size(); ++i)
      if (incoming->assemblies[i].complete()) (void)deliver_file(*incoming, i);
    incoming_by_id_[incoming->id] = incoming.get();
    incoming_.emplace(incoming->manifest.key, std::move(incoming));
    ++transfers_recovered_;
    njs_.metrics()
        ->counter("unicore_xfer_recovered_transfers_total",
                  {{"usite", njs_.usite()}})
        .increment();
  }
  update_gauges();
}

}  // namespace unicore::xfer
