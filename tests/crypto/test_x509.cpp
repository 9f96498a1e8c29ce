#include "crypto/x509.h"

#include <gtest/gtest.h>

#include <limits>

namespace unicore::crypto {
namespace {

constexpr std::int64_t kEpoch = 935'536'000;
constexpr std::int64_t kYear = 365 * 86'400LL;

DistinguishedName dn(const std::string& cn) {
  DistinguishedName out;
  out.country = "DE";
  out.organization = "FZ Juelich";
  out.organizational_unit = "ZAM";
  out.common_name = cn;
  out.email = cn + "@fz-juelich.de";
  return out;
}

struct CaFixture : public ::testing::Test {
  util::Rng rng{77};
  CertificateAuthority ca{dn("Root CA"), rng, kEpoch, 10 * kYear};
  TrustStore trust;

  void SetUp() override { trust.add_root(ca.certificate()); }

  Credential user(const std::string& cn,
                  std::uint8_t usage = kUsageClientAuth) {
    return ca.issue_credential(dn(cn), rng, kEpoch, kYear, usage);
  }

  ValidationOptions at(std::int64_t now, std::uint8_t usage = 0) {
    ValidationOptions options;
    options.now = now;
    options.required_usage = usage;
    return options;
  }
};

TEST_F(CaFixture, DistinguishedNameRendering) {
  EXPECT_EQ(dn("Jane").to_string(),
            "C=DE, O=FZ Juelich, OU=ZAM, CN=Jane, E=Jane@fz-juelich.de");
  DistinguishedName partial;
  partial.common_name = "X";
  EXPECT_EQ(partial.to_string(), "CN=X");
}

TEST_F(CaFixture, RootIsSelfSigned) {
  const Certificate& root = ca.certificate();
  EXPECT_EQ(root.issuer, root.subject);
  EXPECT_TRUE(root.is_ca);
  EXPECT_TRUE(root.verify_signature(root.subject_key));
}

TEST_F(CaFixture, DerRoundTrip) {
  Credential c = user("Jane Doe");
  auto decoded = Certificate::from_der(c.certificate.der());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), c.certificate);
  EXPECT_EQ(decoded.value().fingerprint(), c.certificate.fingerprint());
}

TEST_F(CaFixture, FromDerRejectsGarbage) {
  EXPECT_FALSE(Certificate::from_der(util::to_bytes("not a cert")).ok());
  EXPECT_FALSE(Certificate::from_der({}).ok());
}

TEST_F(CaFixture, FromDerRejectsBitFlips) {
  util::Bytes der = user("Jane").certificate.der();
  // Flipping any length byte must not crash, and the result either fails
  // to parse or fails signature verification.
  for (std::size_t i = 0; i < der.size(); i += 7) {
    util::Bytes mutated = der;
    mutated[i] ^= 0xff;
    auto decoded = Certificate::from_der(mutated);
    if (decoded.ok()) {
      EXPECT_FALSE(
          decoded.value().verify_signature(ca.certificate().subject_key) &&
          decoded.value() != Certificate{})
          << i;
    }
  }
}

// ---- the certificate codec against the asn1::Value tree ------------------

// A certificate as a tree of asn1::Values: the definition of its DER,
// which the certificate's own encoder must reproduce byte for byte.
asn1::Value tbs_tree(const Certificate& c) {
  using asn1::Value;
  return Value::sequence(
      {Value::integer(c.version),
       Value::integer(static_cast<std::int64_t>(c.serial)),
       c.issuer.to_asn1(), c.subject.to_asn1(), Value::utc_time(c.not_before),
       Value::utc_time(c.not_after),
       Value::sequence(
           {Value::integer(static_cast<std::int64_t>(c.subject_key.n)),
            Value::integer(static_cast<std::int64_t>(c.subject_key.e))}),
       Value::integer(c.key_usage), Value::boolean(c.is_ca)});
}

asn1::Value certificate_tree(const Certificate& c) {
  return asn1::Value::sequence(
      {tbs_tree(c),
       asn1::Value::integer(static_cast<std::int64_t>(c.signature.value))});
}

// from_der as a decode of the whole tree followed by a check of every
// field's shape: the reference the certificate's own decoder must agree
// with, on acceptance and on the decoded fields, for every input.
util::Result<Certificate> from_der_via_tree(util::ByteView der) {
  const auto malformed = [] {
    return util::make_error(util::ErrorCode::kInvalidArgument, "malformed");
  };
  auto decoded = asn1::decode(der);
  if (!decoded) return decoded.error();
  const asn1::Value& full = decoded.value();
  if (!full.is_sequence() || full.as_sequence().size() != 2) return malformed();
  const asn1::Value& tbs = full.as_sequence()[0];
  const asn1::Value& sig = full.as_sequence()[1];
  if (!tbs.is_sequence() || tbs.as_sequence().size() != 9 || !sig.is_integer())
    return malformed();
  const auto& f = tbs.as_sequence();
  Certificate cert;
  try {
    cert.version = static_cast<std::int32_t>(f[0].as_integer());
    cert.serial = static_cast<std::uint64_t>(f[1].as_integer());
    auto issuer = DistinguishedName::from_asn1(f[2]);
    auto subject = DistinguishedName::from_asn1(f[3]);
    if (!issuer || !subject) return malformed();
    cert.issuer = issuer.value();
    cert.subject = subject.value();
    cert.not_before = f[4].as_utc_time();
    cert.not_after = f[5].as_utc_time();
    const asn1::Value& key = f[6];
    if (!key.is_sequence() || key.as_sequence().size() != 2) return malformed();
    cert.subject_key.n =
        static_cast<std::uint64_t>(key.as_sequence()[0].as_integer());
    cert.subject_key.e =
        static_cast<std::uint64_t>(key.as_sequence()[1].as_integer());
    cert.key_usage = static_cast<std::uint8_t>(f[7].as_integer());
    cert.is_ca = f[8].as_boolean();
  } catch (const std::runtime_error&) {
    return malformed();
  }
  cert.signature.value = static_cast<std::uint64_t>(sig.as_integer());
  return cert;
}

// Certificates that exercise every encoding rule the codec has: INTEGERs
// of every width and sign (serial, modulus and signature at or above 2^63
// read as negative int64), short and long-form lengths at each level,
// empty DN attributes, and both BOOLEAN values.
std::vector<Certificate> codec_cases(const Certificate& root,
                                     const Certificate& leaf) {
  std::vector<Certificate> cases{root, leaf};  // is_ca true and false

  Certificate empty;  // every attribute empty, every number zero
  empty.version = 0;
  cases.push_back(empty);

  Certificate wide = leaf;
  wide.version = std::numeric_limits<std::int32_t>::min();
  wide.serial = 0x8000000000000000ULL;
  wide.subject_key.n = 0xfffffffffffffff1ULL;
  wide.subject_key.e = 0x80;
  wide.signature.value = ~std::uint64_t{0};
  wide.not_before = std::numeric_limits<std::int64_t>::min();
  wide.not_after = std::numeric_limits<std::int64_t>::max();
  wide.key_usage = 0xff;
  wide.is_ca = true;
  cases.push_back(wide);

  // A DN attribute, and so its DN, at and beyond the short-form limit.
  for (std::size_t length : {127u, 128u, 255u, 256u, 300u}) {
    Certificate long_attribute = leaf;
    long_attribute.subject.common_name = std::string(length, 'x');
    cases.push_back(long_attribute);
  }
  // A DN whose content is exactly 127 and 128 bytes: 5 attributes of 2
  // header bytes each around 117 and 118 bytes of text.
  for (std::size_t length : {117u, 118u}) {
    Certificate boundary = leaf;
    boundary.issuer = DistinguishedName{};
    boundary.issuer.common_name = std::string(length, 'y');
    cases.push_back(boundary);
  }
  // A TBS whose length takes three length bytes.
  Certificate huge = leaf;
  huge.subject.email = std::string(70'000, 'e');
  cases.push_back(huge);
  return cases;
}

TEST_F(CaFixture, EncodingMatchesTheValueTreeByteForByte) {
  for (const Certificate& cert :
       codec_cases(ca.certificate(), user("Jane").certificate)) {
    const std::string what = cert.subject.to_string().substr(0, 80) + " / " +
                             cert.issuer.to_string().substr(0, 80);
    EXPECT_EQ(cert.tbs_der(), asn1::encode(tbs_tree(cert))) << what;
    EXPECT_EQ(cert.der(), asn1::encode(certificate_tree(cert))) << what;
  }
  // The leaf's TBS is past the short form: the cases above take it.
  EXPECT_EQ(user("Jane").certificate.tbs_der()[1], 0x81);
}

TEST_F(CaFixture, DecodeThenEncodeReturnsTheSameBytes) {
  for (const Certificate& cert :
       codec_cases(ca.certificate(), user("Jane").certificate)) {
    const util::Bytes der = cert.der();
    auto decoded = Certificate::from_der(der);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded.value(), cert);
    EXPECT_EQ(decoded.value().der(), der);
  }
}

void expect_from_der_agrees(util::ByteView input, const std::string& what) {
  auto fast = Certificate::from_der(input);
  auto tree = from_der_via_tree(input);
  ASSERT_EQ(fast.ok(), tree.ok()) << what;
  if (fast.ok()) {
    ASSERT_EQ(fast.value(), tree.value()) << what;
  }
}

TEST_F(CaFixture, FromDerAgreesWithTheTreeDecoderOnEveryMutation) {
  Certificate long_form = user("Jane").certificate;
  long_form.subject.common_name = std::string(130, 'z');
  for (const Certificate& cert :
       {ca.certificate(), user("Jane").certificate, long_form}) {
    const util::Bytes der = cert.der();
    expect_from_der_agrees(der, "unchanged");
    // Every value of every byte.
    for (std::size_t i = 0; i < der.size(); ++i) {
      util::Bytes mutated = der;
      for (int flip = 1; flip < 256; ++flip) {
        mutated[i] = static_cast<std::uint8_t>(der[i] ^ flip);
        expect_from_der_agrees(mutated, "byte " + std::to_string(i) +
                                            " ^ " + std::to_string(flip));
      }
    }
    // Every truncation.
    for (std::size_t n = 0; n < der.size(); ++n)
      expect_from_der_agrees(util::ByteView(der).first(n),
                             "first " + std::to_string(n) + " bytes");
    // Every one-byte tail, and longer ones that parse as DER themselves.
    for (int tail = 0; tail < 256; ++tail) {
      util::Bytes longer = der;
      longer.push_back(static_cast<std::uint8_t>(tail));
      expect_from_der_agrees(longer, "tail " + std::to_string(tail));
    }
    for (const util::Bytes& tail :
         {util::Bytes{0x05, 0x00}, util::Bytes{0x02, 0x01, 0x00}, der}) {
      util::Bytes longer = der;
      util::append(longer, tail);
      expect_from_der_agrees(longer, "a DER tail");
    }
  }
}

TEST_F(CaFixture, ValidCertificateChainValidates) {
  Credential c = user("Jane Doe");
  EXPECT_TRUE(trust.validate(c.certificate, {}, at(kEpoch + 100)).ok());
}

TEST_F(CaFixture, ExpiredCertificateRejected) {
  Credential c = user("Jane Doe");
  auto status = trust.validate(c.certificate, {}, at(kEpoch + 2 * kYear));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kAuthenticationFailed);
}

TEST_F(CaFixture, NotYetValidCertificateRejected) {
  Credential c = user("Jane Doe");
  EXPECT_FALSE(trust.validate(c.certificate, {}, at(kEpoch - 100)).ok());
}

TEST_F(CaFixture, UsageEnforced) {
  Credential c = user("Jane Doe", kUsageClientAuth);
  EXPECT_TRUE(
      trust.validate(c.certificate, {}, at(kEpoch, kUsageClientAuth)).ok());
  auto status =
      trust.validate(c.certificate, {}, at(kEpoch, kUsageServerAuth));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(CaFixture, UnknownIssuerRejected) {
  util::Rng other_rng(88);
  CertificateAuthority other(dn("Other CA"), other_rng, kEpoch, kYear);
  Credential c =
      other.issue_credential(dn("Jane Doe"), other_rng, kEpoch, kYear,
                             kUsageClientAuth);
  EXPECT_FALSE(trust.validate(c.certificate, {}, at(kEpoch)).ok());
}

TEST_F(CaFixture, ForgedSignatureRejected) {
  Credential c = user("Jane Doe");
  c.certificate.subject = dn("Mallory");  // alter after signing
  EXPECT_FALSE(trust.validate(c.certificate, {}, at(kEpoch)).ok());
}

TEST_F(CaFixture, IntermediateChainValidates) {
  // root -> intermediate CA -> leaf.
  util::Rng leaf_rng(99);
  PrivateKey intermediate_key = generate_keypair(leaf_rng);
  Certificate intermediate =
      ca.issue(dn("Intermediate CA"), intermediate_key.pub, kEpoch, kYear,
               kUsageCertSign, /*is_ca=*/true);

  PrivateKey leaf_key = generate_keypair(leaf_rng);
  Certificate leaf;
  leaf.serial = 1000;
  leaf.issuer = intermediate.subject;
  leaf.subject = dn("Leaf");
  leaf.not_before = kEpoch;
  leaf.not_after = kEpoch + kYear;
  leaf.subject_key = leaf_key.pub;
  leaf.key_usage = kUsageClientAuth;
  leaf.signature = sign_message(intermediate_key, leaf.tbs_der());

  Certificate chain[] = {intermediate};
  EXPECT_TRUE(trust.validate(leaf, chain, at(kEpoch)).ok());

  // Without the intermediate, the chain cannot be built.
  EXPECT_FALSE(trust.validate(leaf, {}, at(kEpoch)).ok());

  // A non-CA intermediate is rejected.
  Certificate bogus = intermediate;
  bogus.is_ca = false;
  bogus.signature = sign_message(
      PrivateKey{ca.credential().key}, bogus.tbs_der());
  Certificate bad_chain[] = {bogus};
  EXPECT_FALSE(trust.validate(leaf, bad_chain, at(kEpoch)).ok());
}

TEST_F(CaFixture, RevocationViaCrl) {
  Credential c = user("Jane Doe");
  EXPECT_TRUE(trust.validate(c.certificate, {}, at(kEpoch)).ok());

  ca.revoke(c.certificate.serial);
  EXPECT_TRUE(ca.is_revoked(c.certificate.serial));
  RevocationList crl = ca.crl(kEpoch + 10);
  EXPECT_TRUE(crl.contains(c.certificate.serial));
  ASSERT_TRUE(trust.add_crl(crl).ok());

  auto status = trust.validate(c.certificate, {}, at(kEpoch + 20));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("revoked"), std::string::npos);
}

TEST_F(CaFixture, CrlMustBeSignedByTrustedRoot) {
  util::Rng other_rng(111);
  CertificateAuthority rogue(dn("Rogue"), other_rng, kEpoch, kYear);
  rogue.revoke(12345);
  RevocationList fake = rogue.crl(kEpoch);
  fake.issuer = ca.certificate().subject;  // impersonate the real CA
  EXPECT_FALSE(trust.add_crl(fake).ok());
}

TEST_F(CaFixture, CrlReplacedNotAccumulated) {
  Credential a = user("A"), b = user("B");
  ca.revoke(a.certificate.serial);
  ASSERT_TRUE(trust.add_crl(ca.crl(kEpoch + 1)).ok());
  ca.revoke(b.certificate.serial);
  ASSERT_TRUE(trust.add_crl(ca.crl(kEpoch + 2)).ok());
  EXPECT_FALSE(trust.validate(a.certificate, {}, at(kEpoch + 3)).ok());
  EXPECT_FALSE(trust.validate(b.certificate, {}, at(kEpoch + 3)).ok());
}

TEST_F(CaFixture, SerialsAreUnique) {
  std::set<std::uint64_t> serials{ca.certificate().serial};
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(serials.insert(user("u" + std::to_string(i))
                                   .certificate.serial)
                    .second);
}

}  // namespace
}  // namespace unicore::crypto
