// The UNICORE high-level protocol (§5.3): "a client-server type of
// communication. JPA/JMC act as client while NJS (resp. the gateway)
// acts as both client and server depending on the partner. ... It is an
// asynchronous protocol."
//
// Message envelopes over a SecureChannel:
//   kRequest      u8 | kind u8 | request_id u64 | payload
//   kReply        u8 | request_id u64 | ok u8 | payload-or-error
//   kNotification u8 | job token u64 | Outcome      (server -> client push
//                                                    for forwarded jobs)
//   kTokenRequest u8 | kind u8 | request_id u64 | token blob | payload
//                 (portal facade: the bearer token selects the identity
//                  instead of the channel's peer certificate)
#pragma once

#include <cstdint>
#include <string>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "gateway/gateway.h"
#include "njs/njs.h"
#include "njs/peer_link.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::server {

enum class MessageType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
  kNotification = 3,
  kTokenRequest = 4,  // kRequest with a leading session-token blob
};

enum class RequestKind : std::uint8_t {
  kConsign = 1,        // JPA: SignedAjo
  kQuery = 2,          // JMC: token + detail
  kList = 3,           // JMC
  kControl = 4,        // JMC: token + command
  kFetchOutput = 5,    // JMC: token + file name
  kResourcePages = 6,  // JPA: resource info for the Usite's Vsites
  kGetBundle = 7,      // "applet" download: bundle name
  kForwardConsign = 8, // peer NJS: ForwardedConsignment
  kDeliverFile = 9,    // peer NJS: token + name + blob
  kFetchFile = 10,     // peer NJS: token + name
  kPeerControl = 11,   // peer NJS: token + command
  kMonitorMetrics = 12,  // MonitorService: Usite metrics snapshot
  kMonitorTrace = 13,    // MonitorService: token -> job trace timeline
  kJournalInspect = 14,  // recovery diagnostics: NJS journal stats
  // 15 and 17 are retired (the single-file transfer open and close);
  // never reuse them.
  kXferChunk = 16,  // one bundle chunk (push) or chunk request (pull)
  // Portal facade (docs/PORTAL.md). kSessionOpen authenticates the
  // channel's peer certificate (the one full- or resumed-handshake
  // contact) and mints a bearer token; the other five normally ride the
  // kTokenRequest envelope.
  kSessionOpen = 18,     // ttl request -> token + expiry + login
  kSessionRefresh = 19,  // envelope token -> extended expiry
  kSessionClose = 20,    // envelope token -> explicit logout
  kStorageList = 21,     // caller's per-job working storages
  kStorageFiles = 22,    // job token -> names in that job's storage
  kStorageReap = 23,     // job token -> empty the storage, free quota
  // The chunked transfer engine (src/xfer/, docs/DATA.md §3). One open
  // carries up to xfer::kMaxBundleFiles files (a single file is a
  // bundle of one); their chunks interleave over kXferChunk frames
  // tagged with an in-bundle file index; one close commits the lot.
  // Bodies start with a xfer::Role byte that selects the authentication
  // path (push / peer pull: server certificate; client push / pull: user
  // certificate).
  kXferBundleOpen = 24,   // open or resume a bundle by durable key
  kXferBundleClose = 25,  // commit (push) / release (pull) the bundle
};

const char* request_kind_name(RequestKind kind);

/// File-movement counters shared by both ends of the fetch/deliver API:
/// which wire path each call took. The chunked engine and the legacy
/// whole-blob requests are an internal fallback pair — callers see one
/// entry point and these stats.
struct TransferStats {
  std::uint64_t chunked = 0;  // engine transfers (src/xfer/), any file count
  std::uint64_t legacy = 0;   // whole-blob kDeliverFile / kFetchFile(Output)
  std::uint64_t total() const { return chunked + legacy; }
};

// --- envelope builders ---------------------------------------------------

util::Bytes make_request(RequestKind kind, std::uint64_t request_id,
                         util::ByteView payload);
/// A request authenticated by a gateway-issued session token instead of
/// the channel's peer certificate (portal facade).
util::Bytes make_token_request(RequestKind kind, std::uint64_t request_id,
                               util::ByteView token, util::ByteView payload);
util::Bytes make_ok_reply(std::uint64_t request_id, util::ByteView payload);
util::Bytes make_error_reply(std::uint64_t request_id,
                             const util::Error& error);
util::Bytes make_notification(std::uint64_t job_token,
                              const ajo::Outcome& outcome);

// --- payload codecs --------------------------------------------------------
//
// Payloads that name a shared type use that type's own codec: the user
// a request is executed for is gateway::AuthenticatedUser, a session
// grant is gateway::SessionGrant, and the kList and kStorageList rows
// are njs::JobSummary and njs::StorageInfo (docs/PROTOCOL.md, "Decoding
// rules"). Only the envelopes and the payloads below live here.

util::Bytes encode_forwarded(const njs::ForwardedConsignment& consignment);
/// A job that does not decode, a root that is not a job, or a
/// certificate that does not parse fails the reader.
njs::ForwardedConsignment decode_forwarded(util::ByteReader& r);

void encode_error(util::ByteWriter& w, const util::Error& error);
util::Error decode_error(util::ByteReader& r);

}  // namespace unicore::server
