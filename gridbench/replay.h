// Layer replays: after a traced round, each layer's public function is
// timed on the inputs that round generated, on private instances (a
// private Engine, Network, Gateway, BatchSubsystem, ChunkStore) so the
// measured grid is never disturbed. Each returns a mean per call or per
// byte over enough repetitions to fill a few tens of milliseconds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ajo/job.h"
#include "batch/target_system.h"
#include "crypto/x509.h"
#include "grid/grid.h"
#include "uspace/blob.h"

namespace gridbench::replay {

/// sim::Engine: `fired` at() calls with no-op handlers plus `cancels`
/// at()+cancel() pairs (request timeouts), interleaved as a run would.
double sim_self_ns_per_event(std::uint64_t fired, std::uint64_t cancels);

struct HandshakeCost {
  double full_us = 0;
  double resumed_us = 0;
};
/// A SecureChannel pair on a private Network: `user` against a server
/// credential the grid CA issues.
HandshakeCost handshakes(unicore::grid::Grid& grid,
                         const unicore::crypto::Credential& user);

/// Seal + open of application messages of the given sizes over an
/// established private channel pair, per payload byte.
double seal_open_ns_per_byte(unicore::grid::Grid& grid,
                             const unicore::crypto::Credential& user,
                             const std::vector<std::size_t>& sizes);

double cert_validate_us(const unicore::crypto::TrustStore& trust,
                        std::span<const unicore::crypto::Credential> users,
                        std::int64_t now);
double tbs_der_us(std::span<const unicore::crypto::Credential> users);
double sha256_ns_per_byte(const std::vector<std::size_t>& sizes);

struct CodecCost {
  double encode_us = 0;
  double decode_us = 0;
};
CodecCost ajo_codec(const std::vector<unicore::ajo::AbstractJobObject>& jobs);

struct AuthCost {
  double miss_us = 0;
  double hit_us = 0;
  double token_us = 0;
};
/// Gateway::authenticate_user cold (first sight of each certificate) and
/// warm (auth-cache hit), and SessionBroker::authenticate on tokens
/// minted for the same identities.
AuthCost gateway_auth(const unicore::grid::Grid& grid,
                      std::span<const unicore::crypto::Credential> users,
                      std::int64_t now);

/// One batch submission of a recorded job stream.
struct BatchArrival {
  unicore::sim::Time at = 0;
  std::int64_t processors = 1;
  double runtime_s = 1;
};
/// The stream through a private BatchSubsystem of the same system,
/// wall microseconds per job.
double batch_sched_us_per_job(const unicore::batch::SystemConfig& system,
                              std::vector<BatchArrival> stream);

/// xfer::make_chunk + Chunk::encode/decode over the files, per byte.
double chunk_codec_ns_per_byte(
    const std::vector<std::shared_ptr<const unicore::uspace::FileBlob>>&
        files);

struct InternCost {
  double cold_ns_per_byte = 0;
  double warm_ns_per_byte = 0;
};
/// store::intern_bytes into a private store: `changed` files are new
/// content (cold); `unchanged` files are interned a second time, which
/// the store settles by dedup (warm).
InternCost store_intern(
    const std::vector<std::shared_ptr<const unicore::uspace::FileBlob>>&
        changed,
    const std::vector<std::shared_ptr<const unicore::uspace::FileBlob>>&
        unchanged);

}  // namespace gridbench::replay
