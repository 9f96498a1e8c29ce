// Interface the NJS uses to talk to peer Usites ("the different servers
// are connected so that (parts of) UNICORE jobs, data, and control
// information can be exchanged", §4.3). The server layer implements it
// over gateway-to-gateway secure channels; tests may substitute an
// in-process fake. All operations are asynchronous, matching §5.3.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "uspace/blob.h"
#include "util/result.h"

namespace unicore::njs {

/// A sub-AJO consigned NJS-to-NJS: the job group, the originating user's
/// certificate, and the consigning server's endorsement signature over
/// (job || user certificate).
struct ForwardedConsignment {
  ajo::AbstractJobObject job;
  crypto::Certificate user_certificate;
  crypto::Certificate consignor_certificate;
  crypto::Signature signature;
  /// Dependency files travelling with the job group, staged into its
  /// Uspace on arrival (the analogue of workstation files travelling
  /// inside the AJO, §5.6).
  uspace::StagedFiles staged_files;

  /// Canonical signing input (covers job and user certificate).
  static util::Bytes signing_input(const ajo::AbstractJobObject& job,
                                   const crypto::Certificate& user_cert);

  /// Digest of the signed consignment (signing input, signature, and
  /// consignor certificate). Stable across retries of the same
  /// consignment, so the receiving NJS can dedupe.
  util::Bytes idempotency_key() const;
};

/// Handle of a job consigned at a remote Usite.
struct RemoteJobHandle {
  std::string usite;
  ajo::JobToken token = 0;
};

class PeerLink {
 public:
  virtual ~PeerLink() = default;

  /// Consigns a job group to `usite`. `on_accepted` fires with the
  /// remote token (or the rejection); `on_final` fires once when the
  /// remote job reaches a terminal state, carrying its full outcome.
  virtual void consign(const std::string& usite,
                       const ForwardedConsignment& consignment,
                       std::function<void(util::Result<RemoteJobHandle>)>
                           on_accepted,
                       std::function<void(ajo::Outcome)> on_final) = 0;

  /// Delivers a file into the Uspace of a remote job ("file transfer
  /// between Uspaces ... through NJS–NJS communication via the
  /// gateway", §5.6). The blob is shared, not copied — the transfer
  /// engine holds it across many chunk sends without duplicating it.
  virtual void deliver_file(const RemoteJobHandle& target,
                            const std::string& uspace_name,
                            std::shared_ptr<const uspace::FileBlob> blob,
                            std::function<void(util::Status)> done) = 0;

  /// Fetches many files from the Uspace of a remote job (the dependency
  /// files a remote predecessor produced), in request order. An empty
  /// `names` succeeds immediately.
  virtual void fetch_files(
      const RemoteJobHandle& source, std::vector<std::string> names,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)>
          done) = 0;

  /// Forwards a control command (abort/hold/release/delete).
  virtual void control(const RemoteJobHandle& target,
                       ajo::ControlService::Command command,
                       std::function<void(util::Status)> done) = 0;
};

}  // namespace unicore::njs
