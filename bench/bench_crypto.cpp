// Security-substrate microbenchmarks: the primitive costs every
// UNICORE interaction pays (hashing, record protection, signatures,
// key agreement). Baseline data for interpreting the handshake and
// transfer benches.
#include <benchmark/benchmark.h>

#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/x509.h"
#include "util/rng.h"

namespace {

using namespace unicore;

/// Message sizes for the hash kernels: 32 and 55 bytes pad into one
/// block, 64 into two, and 300 is about one portal record; then bulk.
void hash_sizes(benchmark::internal::Benchmark* b) {
  for (int size : {32, 55, 64, 300, 512, 4096, 32768, 262144, 1 << 20})
    b->Arg(size);
}

void BM_Sha256(benchmark::State& state) {
  util::Rng rng(1);
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Apply(hash_sizes);

void BM_HmacSha256(benchmark::State& state) {
  util::Rng rng(2);
  util::Bytes key = rng.bytes(32);
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Apply(hash_sizes);

void BM_CtrCrypt(benchmark::State& state) {
  util::Rng rng(3);
  crypto::SymmetricKey key{rng.bytes(32)};
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ctr_crypt(key, nonce++, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CtrCrypt)->Range(256, 1 << 20);

void BM_CtrCryptInPlace(benchmark::State& state) {
  util::Rng rng(3);
  crypto::SymmetricKey key{rng.bytes(32)};
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::ctr_crypt_inplace(key, nonce++, data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CtrCryptInPlace)->Range(256, 1 << 20);

void BM_SealOpen(benchmark::State& state) {
  util::Rng rng(4);
  crypto::SymmetricKey enc{rng.bytes(32)}, mac{rng.bytes(32)};
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::SealedRecord record = crypto::seal(enc, mac, nonce, data, {});
    auto opened = crypto::open(enc, mac, record, {});
    benchmark::DoNotOptimize(opened);
    ++nonce;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealOpen)->Range(256, 1 << 18);

void BM_SealOpenInPlace(benchmark::State& state) {
  // The record-layer hot path: the buffer is encrypted, tagged,
  // verified, and decrypted with zero payload copies.
  util::Rng rng(4);
  crypto::SymmetricKey enc{rng.bytes(32)}, mac{rng.bytes(32)};
  util::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::Digest tag = crypto::seal_inplace(enc, mac, nonce, data, {});
    util::Status opened =
        crypto::open_inplace(enc, mac, nonce, data, tag, {});
    if (!opened.ok()) state.SkipWithError("open_inplace failed");
    benchmark::DoNotOptimize(data.data());
    ++nonce;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealOpenInPlace)->Range(256, 1 << 18);

void BM_RsaKeygen(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::generate_keypair(rng));
}
BENCHMARK(BM_RsaKeygen);

void BM_RsaSign(benchmark::State& state) {
  util::Rng rng(6);
  crypto::PrivateKey key = crypto::generate_keypair(rng);
  util::Bytes message = rng.bytes(256);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::sign_message(key, message));
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  util::Rng rng(7);
  crypto::PrivateKey key = crypto::generate_keypair(rng);
  util::Bytes message = rng.bytes(256);
  crypto::Signature sig = crypto::sign_message(key, message);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::verify_message(key.pub, message, sig));
}
BENCHMARK(BM_RsaVerify);

void BM_DhKeyAgreement(benchmark::State& state) {
  util::Rng rng(8);
  crypto::DhKeyPair peer = crypto::dh_generate(rng);
  for (auto _ : state) {
    crypto::DhKeyPair mine = crypto::dh_generate(rng);
    benchmark::DoNotOptimize(
        crypto::dh_shared_secret(mine, peer.public_value));
  }
}
BENCHMARK(BM_DhKeyAgreement);

void BM_CertificateIssueAndValidate(benchmark::State& state) {
  util::Rng rng(9);
  crypto::DistinguishedName ca_dn{"DE", "CA", "", "Root", ""};
  crypto::CertificateAuthority ca(ca_dn, rng, 0, 1'000'000'000);
  crypto::TrustStore trust;
  trust.add_root(ca.certificate());
  crypto::ValidationOptions options;
  options.now = 100;
  options.required_usage = crypto::kUsageClientAuth;
  int i = 0;
  for (auto _ : state) {
    crypto::DistinguishedName dn{"DE", "O", "", "u" + std::to_string(i++), ""};
    crypto::Credential credential = ca.issue_credential(
        dn, rng, 0, 1'000'000, crypto::kUsageClientAuth);
    benchmark::DoNotOptimize(
        trust.validate(credential.certificate, {}, options));
  }
}
BENCHMARK(BM_CertificateIssueAndValidate);

void BM_CertificateDerRoundTrip(benchmark::State& state) {
  util::Rng rng(10);
  crypto::DistinguishedName ca_dn{"DE", "CA", "", "Root", ""};
  crypto::CertificateAuthority ca(ca_dn, rng, 0, 1'000'000'000);
  crypto::Credential credential = ca.issue_credential(
      {"DE", "O", "OU", "Jane Doe", "jane@o.de"}, rng, 0, 1'000'000,
      crypto::kUsageClientAuth);
  for (auto _ : state) {
    util::Bytes der = credential.certificate.der();
    benchmark::DoNotOptimize(crypto::Certificate::from_der(der));
  }
}
BENCHMARK(BM_CertificateDerRoundTrip);

}  // namespace

BENCHMARK_MAIN();
