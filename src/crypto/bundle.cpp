#include "crypto/bundle.h"

namespace unicore::crypto {

using util::Bytes;
using util::ByteView;
using util::ErrorCode;
using util::Result;
using util::Status;

Bytes SoftwareBundle::signing_input() const {
  util::ByteWriter w;
  w.str(name);
  w.u32(version);
  w.blob(payload);
  return w.take();
}

Bytes SoftwareBundle::encode() const {
  util::ByteWriter w;
  w.str(name);
  w.u32(version);
  w.blob(payload);
  w.blob(signer.der());
  w.u64(signature.value);
  return w.take();
}

Result<SoftwareBundle> SoftwareBundle::decode(ByteView wire) {
  util::ByteReader r(wire);
  SoftwareBundle bundle;
  bundle.name = r.str();
  bundle.version = r.u32();
  bundle.payload = r.blob();
  Bytes cert_der = r.blob();
  bundle.signature.value = r.u64();
  if (Status done = r.finish(); !done.ok()) return done.error();
  auto cert = Certificate::from_der(cert_der);
  if (!cert) return cert.error();
  bundle.signer = std::move(cert.value());
  return bundle;
}

SoftwareBundle make_bundle(std::string name, std::uint32_t version,
                           Bytes payload, const Credential& developer) {
  SoftwareBundle bundle;
  bundle.name = std::move(name);
  bundle.version = version;
  bundle.payload = std::move(payload);
  bundle.signer = developer.certificate;
  bundle.signature = sign_message(developer.key, bundle.signing_input());
  return bundle;
}

Status verify_bundle(const SoftwareBundle& bundle, const TrustStore& trust,
                     std::int64_t now) {
  ValidationOptions options;
  options.now = now;
  options.required_usage = kUsageCodeSign;
  if (auto status = trust.validate(bundle.signer, {}, options); !status.ok())
    return status;
  if (!verify_message(bundle.signer.subject_key, bundle.signing_input(),
                      bundle.signature))
    return util::make_error(ErrorCode::kAuthenticationFailed,
                            "bundle: payload signature invalid");
  return Status::ok_status();
}

}  // namespace unicore::crypto
