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
  std::vector<std::pair<std::string, uspace::FileBlob>> staged_files;

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

  /// Fetches a file from the Uspace of a remote job (dependency files
  /// produced by a remote predecessor).
  virtual void fetch_file(const RemoteJobHandle& source,
                          const std::string& uspace_name,
                          std::function<void(util::Result<uspace::FileBlob>)>
                              done) = 0;

  /// Named files of a batch delivery.
  using Files =
      std::vector<std::pair<std::string,
                            std::shared_ptr<const uspace::FileBlob>>>;

  /// Delivers many files into one remote Uspace. The default walks
  /// deliver_file sequentially; links with the chunked transfer engine
  /// override this with one manifest round trip for the whole batch.
  /// Calling with an empty vector succeeds immediately.
  virtual void deliver_files(const RemoteJobHandle& target, Files files,
                             std::function<void(util::Status)> done) {
    deliver_files_sequential(target, std::move(files), 0, std::move(done));
  }

  /// Fetches many files from one remote Uspace, in request order. The
  /// default walks fetch_file sequentially; links with the transfer engine
  /// override.
  virtual void fetch_files(
      const RemoteJobHandle& source, std::vector<std::string> names,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done) {
    auto blobs = std::make_shared<std::vector<uspace::FileBlob>>();
    blobs->reserve(names.size());
    fetch_files_sequential(source, std::move(names), blobs, std::move(done));
  }

  /// Forwards a control command (abort/hold/release/delete).
  virtual void control(const RemoteJobHandle& target,
                       ajo::ControlService::Command command,
                       std::function<void(util::Status)> done) = 0;

 private:
  void deliver_files_sequential(const RemoteJobHandle& target, Files files,
                                std::size_t next,
                                std::function<void(util::Status)> done) {
    if (next >= files.size()) {
      done(util::Status());
      return;
    }
    auto name = files[next].first;
    auto blob = files[next].second;
    deliver_file(target, name, std::move(blob),
                 [this, target, files = std::move(files), next,
                  done = std::move(done)](util::Status status) mutable {
                   if (!status.ok()) {
                     done(std::move(status));
                     return;
                   }
                   deliver_files_sequential(target, std::move(files), next + 1,
                                            std::move(done));
                 });
  }

  void fetch_files_sequential(
      const RemoteJobHandle& source, std::vector<std::string> names,
      std::shared_ptr<std::vector<uspace::FileBlob>> blobs,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done) {
    if (blobs->size() >= names.size()) {
      done(std::move(*blobs));
      return;
    }
    std::string name = names[blobs->size()];
    fetch_file(source, name,
               [this, source, names = std::move(names), blobs,
                done = std::move(done)](
                   util::Result<uspace::FileBlob> blob) mutable {
                 if (!blob.ok()) {
                   done(blob.error());
                   return;
                 }
                 blobs->push_back(std::move(blob).value());
                 fetch_files_sequential(source, std::move(names), blobs,
                                        std::move(done));
               });
  }
};

}  // namespace unicore::njs
