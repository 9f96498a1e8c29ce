#include "server/protocol.h"

#include "ajo/codec.h"

namespace unicore::server {

using util::ByteReader;
using util::Bytes;
using util::ByteView;
using util::ByteWriter;
using util::Error;
using util::ErrorCode;

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kConsign: return "consign";
    case RequestKind::kQuery: return "query";
    case RequestKind::kList: return "list";
    case RequestKind::kControl: return "control";
    case RequestKind::kFetchOutput: return "fetch-output";
    case RequestKind::kResourcePages: return "resource-pages";
    case RequestKind::kGetBundle: return "get-bundle";
    case RequestKind::kForwardConsign: return "forward-consign";
    case RequestKind::kDeliverFile: return "deliver-file";
    case RequestKind::kFetchFile: return "fetch-file";
    case RequestKind::kPeerControl: return "peer-control";
    case RequestKind::kMonitorMetrics: return "monitor-metrics";
    case RequestKind::kMonitorTrace: return "monitor-trace";
    case RequestKind::kJournalInspect: return "journal-inspect";
    case RequestKind::kXferChunk: return "xfer-chunk";
    case RequestKind::kSessionOpen: return "session-open";
    case RequestKind::kSessionRefresh: return "session-refresh";
    case RequestKind::kSessionClose: return "session-close";
    case RequestKind::kStorageList: return "storage-list";
    case RequestKind::kStorageFiles: return "storage-files";
    case RequestKind::kStorageReap: return "storage-reap";
    case RequestKind::kXferBundleOpen: return "xfer-bundle-open";
    case RequestKind::kXferBundleClose: return "xfer-bundle-close";
  }
  return "?";
}

Bytes make_request(RequestKind kind, std::uint64_t request_id,
                   ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kRequest));
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(request_id);
  w.raw(payload);
  return w.take();
}

Bytes make_token_request(RequestKind kind, std::uint64_t request_id,
                         ByteView token, ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kTokenRequest));
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(request_id);
  w.blob(token);
  w.raw(payload);
  return w.take();
}

Bytes make_ok_reply(std::uint64_t request_id, ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kReply));
  w.u64(request_id);
  w.u8(1);
  w.raw(payload);
  return w.take();
}

Bytes make_error_reply(std::uint64_t request_id, const Error& error) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kReply));
  w.u64(request_id);
  w.u8(0);
  encode_error(w, error);
  return w.take();
}

Bytes make_notification(std::uint64_t job_token, const ajo::Outcome& outcome) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kNotification));
  w.u64(job_token);
  outcome.encode(w);
  return w.take();
}

Bytes encode_forwarded(const njs::ForwardedConsignment& consignment) {
  ByteWriter w;
  w.blob(ajo::encode_action(consignment.job));
  w.blob(consignment.user_certificate.der());
  w.blob(consignment.consignor_certificate.der());
  w.u64(consignment.signature.value);
  uspace::encode_staged(w, consignment.staged_files);
  return w.take();
}

njs::ForwardedConsignment decode_forwarded(ByteReader& r) {
  njs::ForwardedConsignment out;
  auto action = ajo::decode_action(r.blob());
  auto user_cert = crypto::Certificate::from_der(r.blob());
  auto consignor_cert = crypto::Certificate::from_der(r.blob());
  out.signature.value = r.u64();
  out.staged_files = uspace::decode_staged(r);
  if (!action)
    r.fail(action.error());
  else if (!action.value()->is_job())
    r.fail(util::make_error(ErrorCode::kInvalidArgument,
                            "forwarded consignment root is not a job"));
  else
    out.job = std::move(static_cast<ajo::AbstractJobObject&>(*action.value()));
  if (!user_cert) r.fail(user_cert.error());
  if (!consignor_cert) r.fail(consignor_cert.error());
  if (r.ok()) {
    out.user_certificate = std::move(user_cert.value());
    out.consignor_certificate = std::move(consignor_cert.value());
  }
  return out;
}

void encode_error(ByteWriter& w, const Error& error) {
  w.u8(static_cast<std::uint8_t>(error.code));
  w.str(error.message);
}

Error decode_error(ByteReader& r) {
  Error error;
  error.code = static_cast<ErrorCode>(r.u8());
  error.message = r.str();
  return error;
}

}  // namespace unicore::server
