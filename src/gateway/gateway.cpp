#include "gateway/gateway.h"

#include "crypto/sha256.h"

namespace unicore::gateway {

namespace {
/// Bound on the endorsement-verification memo; one entry per distinct
/// (input, signature, key) triple, so legitimate traffic stays far
/// below this and a flood of garbage signatures cannot grow it
/// unboundedly — it is simply wiped and rebuilt.
constexpr std::size_t kVerifyMemoLimit = 1024;
}  // namespace

using util::ErrorCode;
using util::Result;
using util::Status;

void Gateway::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  audit_counters_ = {};
  auth_cache_->set_metrics(registry, usite_);
}

void Gateway::audit(std::int64_t now, const std::string& subject,
                    AuditAction action, bool accepted, std::string detail) {
  static constexpr const char* kActionNames[kAuditActionCount] = {
      "authenticate", "server-auth", "consign", "consign-forwarded"};
  auto index = static_cast<std::size_t>(action);
  if (metrics_) {
    obs::Counter*& counter = audit_counters_[index][accepted];
    if (counter == nullptr)
      counter = &metrics_->counter(
          "unicore_gateway_auth_total",
          {{"usite", usite_},
           {"action", kActionNames[index]},
           {"result", accepted ? "accept" : "reject"}});
    counter->increment();
  }
  audit_.push_back(
      {now, subject, kActionNames[index], accepted, std::move(detail)});
}

Result<AuthenticatedUser> Gateway::authenticate_user(
    const crypto::Certificate& cert, std::int64_t now) {
  if (auto cached = auth_cache_->lookup(cert, now, trust_->generation(),
                                        uudb_->generation(cert.subject)))
    return *cached;

  crypto::ValidationOptions options;
  options.now = now;
  options.required_usage = crypto::kUsageClientAuth;
  if (auto status = trust_->validate(cert, {}, options); !status.ok()) {
    audit(now, cert.subject.to_string(), AuditAction::kAuthenticate, false,
          status.error().message);
    return status.error();
  }

  auto entry = uudb_->lookup(cert.subject);
  if (!entry) {
    audit(now, cert.subject.to_string(), AuditAction::kAuthenticate, false,
          entry.error().message);
    return entry.error();
  }
  if (entry.value().suspended) {
    audit(now, cert.subject.to_string(), AuditAction::kAuthenticate, false,
          "suspended");
    return util::make_error(ErrorCode::kPermissionDenied,
                            "user suspended at " + usite_ + ": " +
                                cert.subject.to_string());
  }

  AuthenticatedUser user;
  user.dn = cert.subject;
  user.login = entry.value().login;
  user.account_groups = entry.value().account_groups;
  audit(now, cert.subject.to_string(), AuditAction::kAuthenticate, true,
        "login=" + user.login);
  auth_cache_->store(cert, user, now, trust_->generation(),
                     uudb_->generation(cert.subject));
  return user;
}

bool Gateway::verify_endorsement(const crypto::PublicKey& key,
                                 util::ByteView signing_input,
                                 const crypto::Signature& signature) {
  const crypto::Digest digest = crypto::sha256(signing_input);
  VerifyKey memo_key{std::string(digest.begin(), digest.end()),
                     signature.value, key.n, key.e};
  if (auto it = verify_memo_.find(memo_key); it != verify_memo_.end())
    return it->second;
  const bool ok = crypto::verify_digest(key, digest, signature);
  if (verify_memo_.size() >= kVerifyMemoLimit) verify_memo_.clear();
  verify_memo_.emplace(std::move(memo_key), ok);
  return ok;
}

Status Gateway::authenticate_server(const crypto::Certificate& cert,
                                    std::int64_t now) {
  crypto::ValidationOptions options;
  options.now = now;
  options.required_usage = crypto::kUsageServerAuth;
  auto status = trust_->validate(cert, {}, options);
  audit(now, cert.subject.to_string(), AuditAction::kServerAuth, status.ok(),
        status.ok() ? "" : status.error().message);
  return status;
}

Result<AuthenticatedUser> Gateway::check_consignment(
    const ajo::SignedAjo& signed_ajo, std::int64_t now) {
  const std::string subject = signed_ajo.user_certificate.subject.to_string();

  auto user = authenticate_user(signed_ajo.user_certificate, now);
  if (!user) {
    audit(now, subject, AuditAction::kConsign, false, user.error().message);
    return user.error();
  }

  if (!ajo::verify_ajo_signature(signed_ajo)) {
    audit(now, subject, AuditAction::kConsign, false, "AJO signature invalid");
    return util::make_error(ErrorCode::kAuthenticationFailed,
                            "AJO signature does not verify against the "
                            "presented certificate");
  }

  if (auto status = authorize_job(signed_ajo.job, user.value(),
                                  signed_ajo.user_certificate, now);
      !status.ok())
    return status.error();
  return user;
}

Status Gateway::authorize_job(const ajo::AbstractJobObject& job,
                              const AuthenticatedUser& user,
                              const crypto::Certificate& cert,
                              std::int64_t now) {
  const std::string subject = cert.subject.to_string();

  // The job must be consigned under the authenticated identity.
  if (job.user != cert.subject) {
    audit(now, subject, AuditAction::kConsign, false,
          "AJO user != certificate subject");
    return util::make_error(ErrorCode::kPermissionDenied,
                            "AJO names a different user than the "
                            "authenticated identity");
  }

  // Account-group authorisation: an explicit group must be one of the
  // user's; an empty group falls back to the user's first group.
  const std::string& group = job.account_group;
  auto in_group = [&user](const std::string& g) {
    for (const auto& candidate : user.account_groups)
      if (candidate == g) return true;
    return false;
  };
  if (!group.empty() && !in_group(group)) {
    audit(now, subject, AuditAction::kConsign, false,
          "group " + group + " not allowed");
    return util::make_error(ErrorCode::kPermissionDenied,
                            "account group not authorised: " + group);
  }

  if (auto status = job.validate(); !status.ok()) {
    audit(now, subject, AuditAction::kConsign, false, status.error().message);
    return status.error();
  }

  if (site_hook_) {
    auto status = site_hook_(cert, job.site_security_info);
    if (!status.ok()) {
      audit(now, subject, AuditAction::kConsign, false,
            "site auth: " + status.error().message);
      return status.error();
    }
  }

  audit(now, subject, AuditAction::kConsign, true, "login=" + user.login);
  return Status();
}

Result<AuthenticatedUser> Gateway::check_forwarded_consignment(
    const ajo::AbstractJobObject& job,
    const crypto::Certificate& user_certificate,
    const crypto::Certificate& consignor_certificate,
    const crypto::Signature& signature, util::ByteView signing_input,
    std::int64_t now) {
  const std::string subject = user_certificate.subject.to_string() +
                              " via " +
                              consignor_certificate.subject.to_string();

  if (auto status = authenticate_server(consignor_certificate, now);
      !status.ok()) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          status.error().message);
    return status.error();
  }

  if (!verify_endorsement(consignor_certificate.subject_key, signing_input,
                          signature)) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          "endorsement signature invalid");
    return util::make_error(ErrorCode::kAuthenticationFailed,
                            "forwarded consignment endorsement does not "
                            "verify");
  }

  auto user = authenticate_user(user_certificate, now);
  if (!user) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          user.error().message);
    return user.error();
  }

  if (job.user != user_certificate.subject) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          "job user != certificate subject");
    return util::make_error(ErrorCode::kPermissionDenied,
                            "forwarded job names a different user than the "
                            "accompanying certificate");
  }

  const std::string& group = job.account_group;
  bool group_ok = group.empty();
  for (const auto& candidate : user.value().account_groups)
    if (candidate == group) group_ok = true;
  if (!group_ok) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          "group " + group + " not allowed");
    return util::make_error(ErrorCode::kPermissionDenied,
                            "account group not authorised: " + group);
  }

  if (auto status = job.validate(); !status.ok()) {
    audit(now, subject, AuditAction::kConsignForwarded, false,
          status.error().message);
    return status.error();
  }

  audit(now, subject, AuditAction::kConsignForwarded, true,
        "login=" + user.value().login);
  return user;
}

}  // namespace unicore::gateway
