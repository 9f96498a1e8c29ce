#include "crypto/x509.h"

#include <algorithm>

namespace unicore::crypto {

using asn1::Value;
using util::Bytes;
using util::ByteView;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

// ---- DistinguishedName -------------------------------------------------

std::string DistinguishedName::to_string() const {
  std::string out;
  auto add = [&out](const char* key, const std::string& value) {
    if (value.empty()) return;
    if (!out.empty()) out += ", ";
    out += key;
    out += '=';
    out += value;
  };
  add("C", country);
  add("O", organization);
  add("OU", organizational_unit);
  add("CN", common_name);
  add("E", email);
  return out;
}

Value DistinguishedName::to_asn1() const {
  return Value::sequence({Value::utf8(country), Value::utf8(organization),
                          Value::utf8(organizational_unit),
                          Value::utf8(common_name), Value::utf8(email)});
}

Result<DistinguishedName> DistinguishedName::from_asn1(const Value& v) {
  if (!v.is_sequence() || v.as_sequence().size() != 5)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "x509: malformed distinguished name");
  const auto& items = v.as_sequence();
  for (const auto& item : items)
    if (!item.is_utf8())
      return util::make_error(ErrorCode::kInvalidArgument,
                              "x509: DN attribute is not a UTF8String");
  DistinguishedName dn;
  dn.country = items[0].as_utf8();
  dn.organization = items[1].as_utf8();
  dn.organizational_unit = items[2].as_utf8();
  dn.common_name = items[3].as_utf8();
  dn.email = items[4].as_utf8();
  return dn;
}

void DistinguishedName::encode(util::ByteWriter& w) const {
  w.str(country);
  w.str(organization);
  w.str(organizational_unit);
  w.str(common_name);
  w.str(email);
}

DistinguishedName DistinguishedName::decode(util::ByteReader& r) {
  DistinguishedName dn;
  dn.country = r.str();
  dn.organization = r.str();
  dn.organizational_unit = r.str();
  dn.common_name = r.str();
  dn.email = r.str();
  return dn;
}

// ---- Certificate -------------------------------------------------------

// The certificate's DER is written and read field by field, with no
// asn1::Value tree in between: the same bytes as asn1::encode of
// SEQUENCE { tbs, INTEGER signature } where tbs is
//   SEQUENCE { INTEGER version, INTEGER serial, issuer, subject,
//              UTCTime not_before, UTCTime not_after,
//              SEQUENCE { INTEGER n, INTEGER e },
//              INTEGER key_usage, BOOLEAN is_ca }
// and each DN is DistinguishedName::to_asn1's SEQUENCE of five
// UTF8Strings. Unsigned fields travel as their int64 bit patterns.

namespace {

using asn1::Tag;

void write_dn(asn1::Writer& out, const DistinguishedName& dn) {
  const asn1::Writer::Mark mark = out.begin(Tag::kSequence);
  out.utf8(dn.country);
  out.utf8(dn.organization);
  out.utf8(dn.organizational_unit);
  out.utf8(dn.common_name);
  out.utf8(dn.email);
  out.end(mark);
}

void write_tbs(asn1::Writer& out, const Certificate& cert) {
  const asn1::Writer::Mark tbs = out.begin(Tag::kSequence);
  out.integer(cert.version);
  out.integer(static_cast<std::int64_t>(cert.serial));
  write_dn(out, cert.issuer);
  write_dn(out, cert.subject);
  out.utc_time(cert.not_before);
  out.utc_time(cert.not_after);
  const asn1::Writer::Mark key = out.begin(Tag::kSequence);
  out.integer(static_cast<std::int64_t>(cert.subject_key.n));
  out.integer(static_cast<std::int64_t>(cert.subject_key.e));
  out.end(key);
  out.integer(cert.key_usage);
  out.boolean(cert.is_ca);
  out.end(tbs);
}

DistinguishedName read_dn(asn1::Reader& in) {
  asn1::Reader fields = in.enter(Tag::kSequence);
  DistinguishedName dn;
  dn.country = fields.utf8();
  dn.organization = fields.utf8();
  dn.organizational_unit = fields.utf8();
  dn.common_name = fields.utf8();
  dn.email = fields.utf8();
  in.leave(fields);
  return dn;
}

}  // namespace

Bytes Certificate::tbs_der() const {
  asn1::Writer out;
  write_tbs(out, *this);
  return out.take();
}

Bytes Certificate::der() const {
  asn1::Writer out;
  const asn1::Writer::Mark full = out.begin(Tag::kSequence);
  write_tbs(out, *this);
  out.integer(static_cast<std::int64_t>(signature.value));
  out.end(full);
  return out.take();
}

Result<Certificate> Certificate::from_der(ByteView der) {
  asn1::Reader in(der);
  asn1::Reader full = in.enter(Tag::kSequence);
  asn1::Reader tbs = full.enter(Tag::kSequence);
  Certificate cert;
  cert.version = static_cast<std::int32_t>(tbs.integer());
  cert.serial = static_cast<std::uint64_t>(tbs.integer());
  cert.issuer = read_dn(tbs);
  cert.subject = read_dn(tbs);
  cert.not_before = tbs.utc_time();
  cert.not_after = tbs.utc_time();
  asn1::Reader key = tbs.enter(Tag::kSequence);
  cert.subject_key.n = static_cast<std::uint64_t>(key.integer());
  cert.subject_key.e = static_cast<std::uint64_t>(key.integer());
  tbs.leave(key);
  cert.key_usage = static_cast<std::uint8_t>(tbs.integer());
  cert.is_ca = tbs.boolean();
  full.leave(tbs);
  cert.signature.value = static_cast<std::uint64_t>(full.integer());
  in.leave(full);
  util::Status done = in.finish();
  if (!done.ok())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "x509: malformed certificate: " +
                                done.error().message);
  return cert;
}

Digest Certificate::fingerprint() const { return sha256(der()); }

bool Certificate::verify_signature(const PublicKey& issuer_key) const {
  return verify_message(issuer_key, tbs_der(), signature);
}

// ---- RevocationList ----------------------------------------------------

Bytes RevocationList::tbs_der() const {
  asn1::ValueList serial_values;
  serial_values.reserve(serials.size());
  for (std::uint64_t s : serials)
    serial_values.push_back(Value::integer(static_cast<std::int64_t>(s)));
  Value tbs = Value::sequence({issuer.to_asn1(), Value::utc_time(issued_at),
                               Value::sequence(std::move(serial_values))});
  return asn1::encode(tbs);
}

bool RevocationList::verify_signature(const PublicKey& issuer_key) const {
  return verify_message(issuer_key, tbs_der(), signature);
}

bool RevocationList::contains(std::uint64_t serial) const {
  return std::binary_search(serials.begin(), serials.end(), serial);
}

// ---- TrustStore ----------------------------------------------------------

void TrustStore::add_root(Certificate root) {
  roots_.push_back(std::move(root));
  ++generation_;
}

Status TrustStore::add_crl(RevocationList crl) {
  for (const Certificate& root : roots_) {
    if (root.subject == crl.issuer &&
        crl.verify_signature(root.subject_key)) {
      // Replace any previous CRL from the same issuer.
      std::erase_if(crls_, [&](const RevocationList& existing) {
        return existing.issuer == crl.issuer;
      });
      crls_.push_back(std::move(crl));
      ++generation_;
      return Status::ok_status();
    }
  }
  return util::make_error(ErrorCode::kAuthenticationFailed,
                          "crl not signed by a trusted root");
}

const Certificate* TrustStore::find_issuer(
    const DistinguishedName& name, std::span<const Certificate> pool) const {
  for (const Certificate& cert : pool)
    if (cert.subject == name) return &cert;
  return nullptr;
}

bool TrustStore::is_revoked(const Certificate& cert) const {
  for (const RevocationList& crl : crls_)
    if (crl.issuer == cert.issuer && crl.contains(cert.serial)) return true;
  return false;
}

Status TrustStore::validate(const Certificate& leaf,
                            std::span<const Certificate> intermediates,
                            const ValidationOptions& options) const {
  if (options.required_usage != 0 && !leaf.has_usage(options.required_usage))
    return util::make_error(ErrorCode::kPermissionDenied,
                            "certificate lacks required key usage");

  const Certificate* current = &leaf;
  for (std::size_t depth = 0; depth < options.max_chain_depth; ++depth) {
    if (!current->valid_at(options.now))
      return util::make_error(ErrorCode::kAuthenticationFailed,
                              "certificate outside validity window: " +
                                  current->subject.to_string());
    if (is_revoked(*current))
      return util::make_error(ErrorCode::kAuthenticationFailed,
                              "certificate revoked: " +
                                  current->subject.to_string());
    if (depth > 0 && !current->is_ca)
      return util::make_error(ErrorCode::kAuthenticationFailed,
                              "intermediate is not a CA certificate");

    // Trusted root reached? Roots are matched by exact content so a
    // forged look-alike root cannot terminate the chain.
    if (const Certificate* root = find_issuer(current->issuer, roots_)) {
      if (!current->verify_signature(root->subject_key))
        return util::make_error(ErrorCode::kAuthenticationFailed,
                                "signature verification failed against root");
      if (!root->valid_at(options.now))
        return util::make_error(ErrorCode::kAuthenticationFailed,
                                "trusted root expired");
      return Status::ok_status();
    }

    const Certificate* issuer = find_issuer(current->issuer, intermediates);
    if (issuer == nullptr)
      return util::make_error(ErrorCode::kAuthenticationFailed,
                              "no issuer found for " +
                                  current->issuer.to_string());
    if (!current->verify_signature(issuer->subject_key))
      return util::make_error(ErrorCode::kAuthenticationFailed,
                              "signature verification failed in chain");
    current = issuer;
  }
  return util::make_error(ErrorCode::kAuthenticationFailed,
                          "certificate chain too deep");
}

// ---- CertificateAuthority ------------------------------------------------

CertificateAuthority::CertificateAuthority(DistinguishedName name,
                                           util::Rng& rng, std::int64_t now,
                                           std::int64_t validity_seconds) {
  credential_.key = generate_keypair(rng);
  Certificate& cert = credential_.certificate;
  cert.serial = 1;
  cert.issuer = name;
  cert.subject = std::move(name);
  cert.not_before = now;
  cert.not_after = now + validity_seconds;
  cert.subject_key = credential_.key.pub;
  cert.key_usage = kUsageCertSign | kUsageDigitalSignature;
  cert.is_ca = true;
  cert.signature = sign_message(credential_.key, cert.tbs_der());
}

Certificate CertificateAuthority::issue(const DistinguishedName& subject,
                                        const PublicKey& subject_key,
                                        std::int64_t now,
                                        std::int64_t validity_seconds,
                                        std::uint8_t usage, bool is_ca) {
  Certificate cert;
  cert.serial = next_serial_++;
  cert.issuer = credential_.certificate.subject;
  cert.subject = subject;
  cert.not_before = now;
  cert.not_after = now + validity_seconds;
  cert.subject_key = subject_key;
  cert.key_usage = usage;
  cert.is_ca = is_ca;
  cert.signature = sign_message(credential_.key, cert.tbs_der());
  return cert;
}

Credential CertificateAuthority::issue_credential(
    const DistinguishedName& subject, util::Rng& rng, std::int64_t now,
    std::int64_t validity_seconds, std::uint8_t usage) {
  Credential credential;
  credential.key = generate_keypair(rng);
  credential.certificate =
      issue(subject, credential.key.pub, now, validity_seconds, usage);
  return credential;
}

void CertificateAuthority::revoke(std::uint64_t serial) {
  auto it = std::lower_bound(revoked_.begin(), revoked_.end(), serial);
  if (it == revoked_.end() || *it != serial) revoked_.insert(it, serial);
}

bool CertificateAuthority::is_revoked(std::uint64_t serial) const {
  return std::binary_search(revoked_.begin(), revoked_.end(), serial);
}

RevocationList CertificateAuthority::crl(std::int64_t now) const {
  RevocationList crl;
  crl.issuer = credential_.certificate.subject;
  crl.issued_at = now;
  crl.serials = revoked_;
  crl.signature = sign_message(credential_.key, crl.tbs_der());
  return crl;
}

}  // namespace unicore::crypto
