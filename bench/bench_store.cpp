// C10 — the content-addressed Xspace store (src/store/): cold stage-in
// vs dedup-warm restage of the same dataset.
//
// The paper's file-transfer picture (§5.6) moves every byte on every
// staging, even when the dataset is already present at the target site.
// With the chunk store, the sender's open request carries the per-chunk
// digest manifest; the receiver acks every chunk it already holds out
// of the store, so restaging an unchanged dataset moves ZERO payload
// chunks and completes in open+close round trips.
//
// Series:
//   - BM_DatasetRestageColdVsWarm   one multi-MiB..GiB virtual dataset,
//                                   staged cold then restaged warm under
//                                   a different name (different durable
//                                   transfer key, so this is store dedup,
//                                   not the completed-transfer tombstone)
//   - BM_SmallFilesRestageColdVsWarm  a directory of 64 KiB files,
//                                   staged twice the same way
//   - BM_InternDedup                local interning throughput (SHA-256
//                                   bound) and the dedup fast path
//   - BM_SpillFaultRoundTrip        eviction to the spill tier and the
//                                   fault-back on read
//
// `cold_virtual_ms` / `warm_virtual_ms` are simulated elapsed times;
// `speedup` is their ratio; `warm_payload_chunks` counts chunk messages
// the warm restage actually moved (the headline: 0). Every virtual-time
// row runs one pinned iteration, so its counters are deterministic and
// CI compares them exactly against the committed BENCH_store.json.
#include <benchmark/benchmark.h>

#include "common/test_env.h"
#include "grid/testbed.h"
#include "store/chunk_store.h"

namespace {

using namespace unicore;

struct StoreSites {
  grid::Grid grid{7};
  crypto::Credential user;
  ajo::JobToken receiver_token = 0;

  StoreSites() {
    grid::make_german_testbed(grid);
    user = grid::add_testbed_user(grid, "Bench User", "bench@example.de");

    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "VPP700";
    job.user = user.certificate.subject;
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("sleeper");
    task->script = "sleep forever\n";
    task->set_resource_request({1, 86'400, 64, 0, 8});
    task->behavior.nominal_seconds = 1e7;
    job.add(std::move(task));
    gateway::AuthenticatedUser auth{user.certificate.subject, "xbench",
                                    {"project-a"}};
    receiver_token =
        grid.site("LRZ")->njs().consign(job, auth, user.certificate).value();
    grid.engine().run_until(grid.engine().now() + sim::sec(1));

    auto* juelich = grid.site("FZ-Juelich");
    juelich->set_transfer_threshold(0);  // every file takes the rails
    juelich->set_transfer_streams(4);

    // Warm the peer channel so handshakes are not measured.
    bool warm = false;
    juelich->deliver_file(njs::RemoteJobHandle{"LRZ", receiver_token},
                          "warmup",
                          std::make_shared<const uspace::FileBlob>(
                              uspace::FileBlob::synthetic(8, 200)),
                          [&](util::Status) { warm = true; });
    while (!warm && grid.engine().step()) {
    }
  }

  /// Delivers `blob` as `name`, returning the simulated milliseconds it
  /// took (negative on failure).
  double deliver_ms(const std::shared_ptr<const uspace::FileBlob>& blob,
                    const std::string& name) {
    sim::Time start = grid.engine().now();
    bool replied = false;
    bool ok = false;
    grid.site("FZ-Juelich")
        ->deliver_file(njs::RemoteJobHandle{"LRZ", receiver_token}, name, blob,
                       [&](util::Status status) {
                         replied = true;
                         ok = status.ok();
                       });
    while (!replied && grid.engine().step()) {
    }
    if (!ok) return -1;
    return sim::to_seconds(grid.engine().now() - start) * 1e3;
  }

  xfer::Service& receiver_xfer() { return grid.site("LRZ")->xfer_service(); }
  store::ChunkStore& receiver_store() {
    return *grid.site("LRZ")->chunk_store();
  }

  /// Delivers a whole tree through the bundle path (deliver_files →
  /// kXferBundleOpen manifests), returning simulated milliseconds.
  double deliver_tree_ms(
      std::vector<std::pair<std::string,
                            std::shared_ptr<const uspace::FileBlob>>>
          files) {
    sim::Time start = grid.engine().now();
    bool replied = false;
    bool ok = false;
    grid.site("FZ-Juelich")
        ->deliver_files(njs::RemoteJobHandle{"LRZ", receiver_token},
                        std::move(files), [&](util::Status status) {
                          replied = true;
                          ok = status.ok();
                        });
    while (!replied && grid.engine().step()) {
    }
    if (!ok) return -1;
    return sim::to_seconds(grid.engine().now() - start) * 1e3;
  }
};

std::vector<std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>
small_file_tree(int files, std::uint64_t file_bytes, int seed_base,
                const std::string& stem) {
  std::vector<std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>
      tree;
  tree.reserve(files);
  for (int i = 0; i < files; ++i)
    tree.emplace_back(stem + std::to_string(i),
                      std::make_shared<const uspace::FileBlob>(
                          uspace::FileBlob::synthetic(file_bytes, seed_base + i)));
  return tree;
}

/// Cold stage-in of a fresh dataset, then a warm restage of the same
/// content under a different target name.
void BM_DatasetRestageColdVsWarm(benchmark::State& state) {
  StoreSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  double cold_ms = 0, warm_ms = 0;
  std::uint64_t warm_chunks = 0;
  int runs = 0;
  for (auto _ : state) {
    // A fresh seed each round: the cold leg never dedups against a
    // previous iteration's chunks.
    auto blob = std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::synthetic(bytes, 10 + runs));
    std::string tag = std::to_string(runs);
    double cold = env.deliver_ms(blob, "cold" + tag + ".bin");
    std::uint64_t applied_before = env.receiver_xfer().chunks_applied();
    double warm = env.deliver_ms(blob, "warm" + tag + ".bin");
    if (cold < 0 || warm < 0) {
      state.SkipWithError("delivery failed");
      break;
    }
    cold_ms += cold;
    warm_ms += warm;
    warm_chunks += env.receiver_xfer().chunks_applied() - applied_before;
    ++runs;
  }
  if (runs == 0) return;
  state.counters["cold_virtual_ms"] = cold_ms / runs;
  state.counters["warm_virtual_ms"] = warm_ms / runs;
  state.counters["speedup"] = cold_ms / warm_ms;
  state.counters["warm_payload_chunks"] =
      static_cast<double>(warm_chunks) / runs;
  state.counters["cold_virtual_MBps"] =
      static_cast<double>(bytes) / 1e6 / (cold_ms / runs / 1e3);
  state.SetLabel("restage FZJ->LRZ, dedup-warm vs cold");
}
BENCHMARK(BM_DatasetRestageColdVsWarm)
    ->Arg(16 << 20)
    ->Arg(256 << 20)
    ->Arg(1 << 30)
    ->Arg(4LL << 30)
    ->Iterations(1);

/// The same comparison for a directory of many small files.
void BM_SmallFilesRestageColdVsWarm(benchmark::State& state) {
  StoreSites env;
  int files = static_cast<int>(state.range(0));
  constexpr std::uint64_t kFileBytes = 64 << 10;
  double cold_ms = 0, warm_ms = 0;
  std::uint64_t warm_chunks = 0;
  int runs = 0;
  for (auto _ : state) {
    std::string tag = std::to_string(runs) + "/";
    for (int i = 0; i < files; ++i) {
      auto blob = std::make_shared<const uspace::FileBlob>(
          uspace::FileBlob::synthetic(kFileBytes, 1000 + runs * files + i));
      double ms = env.deliver_ms(blob, "cold" + tag + std::to_string(i));
      if (ms < 0) {
        state.SkipWithError("delivery failed");
        return;
      }
      cold_ms += ms;
    }
    std::uint64_t applied_before = env.receiver_xfer().chunks_applied();
    for (int i = 0; i < files; ++i) {
      auto blob = std::make_shared<const uspace::FileBlob>(
          uspace::FileBlob::synthetic(kFileBytes, 1000 + runs * files + i));
      double ms = env.deliver_ms(blob, "warm" + tag + std::to_string(i));
      if (ms < 0) {
        state.SkipWithError("delivery failed");
        return;
      }
      warm_ms += ms;
    }
    warm_chunks += env.receiver_xfer().chunks_applied() - applied_before;
    ++runs;
  }
  if (runs == 0) return;
  state.counters["files"] = files;
  state.counters["cold_virtual_ms"] = cold_ms / runs;
  state.counters["warm_virtual_ms"] = warm_ms / runs;
  state.counters["speedup"] = cold_ms / warm_ms;
  state.counters["warm_payload_chunks"] =
      static_cast<double>(warm_chunks) / runs;
  state.SetLabel("small-file restage FZJ->LRZ");
}
BENCHMARK(BM_SmallFilesRestageColdVsWarm)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Iterations(1);

/// One bundle for the whole tree vs one transfer per file, for the
/// same directory of 16 KiB files. The per-file leg calls deliver_file
/// per file — each a bundle of one paying open+chunk+close round
/// trips; the bundle leg pays ONE open and ONE close for the whole
/// batch with chunks interleaved over the shared window — the
/// kXferBundleOpen headline (≥10x at 1e4 files).
void BM_SmallFilesBundleVsPerFile(benchmark::State& state) {
  StoreSites env;
  int files = static_cast<int>(state.range(0));
  constexpr std::uint64_t kFileBytes = 16 << 10;
  double per_file_ms = 0, bundle_ms = 0, warm_ms = 0;
  std::uint64_t warm_chunks = 0;
  int runs = 0;
  for (auto _ : state) {
    int seed = 1'000'000 + runs * 4 * files;
    std::string tag = std::to_string(runs) + "/";
    // Per-file leg: fresh content, one bundle of one per file.
    for (int i = 0; i < files; ++i) {
      double ms = env.deliver_ms(
          std::make_shared<const uspace::FileBlob>(
              uspace::FileBlob::synthetic(kFileBytes, seed + i)),
          "single" + tag + std::to_string(i));
      if (ms < 0) {
        state.SkipWithError("per-file delivery failed");
        return;
      }
      per_file_ms += ms;
    }
    // Bundle leg: fresh content again (no dedup against the first leg).
    auto tree =
        small_file_tree(files, kFileBytes, seed + files, "bundle" + tag);
    double cold = env.deliver_tree_ms(tree);
    if (cold < 0) {
      state.SkipWithError("bundle delivery failed");
      return;
    }
    bundle_ms += cold;
    // Warm restage of the bundle under new names: the open manifests
    // settle the whole batch out of the store — zero payload chunks.
    std::uint64_t applied_before = env.receiver_xfer().chunks_applied();
    for (auto& [name, blob] : tree) name = "re" + name;
    double warm = env.deliver_tree_ms(std::move(tree));
    if (warm < 0) {
      state.SkipWithError("warm bundle delivery failed");
      return;
    }
    warm_ms += warm;
    warm_chunks += env.receiver_xfer().chunks_applied() - applied_before;
    ++runs;
  }
  if (runs == 0) return;
  state.counters["files"] = files;
  state.counters["per_file_virtual_ms"] = per_file_ms / runs;
  state.counters["bundle_virtual_ms"] = bundle_ms / runs;
  state.counters["speedup"] = per_file_ms / bundle_ms;
  state.counters["warm_virtual_ms"] = warm_ms / runs;
  state.counters["warm_payload_chunks"] =
      static_cast<double>(warm_chunks) / runs;
  state.SetLabel("bundle vs per-file FZJ->LRZ");
}
BENCHMARK(BM_SmallFilesBundleVsPerFile)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Iterations(1);

/// Bundle-path scale: cold stage-in and dedup-warm restage of 1e5 and
/// 1e6 small files (the per-file path is hopeless at this count — see
/// BM_SmallFilesBundleVsPerFile for the direct comparison).
void BM_SmallFilesBundleScale(benchmark::State& state) {
  StoreSites env;
  int files = static_cast<int>(state.range(0));
  constexpr std::uint64_t kFileBytes = 16 << 10;
  double cold_ms = 0, warm_ms = 0;
  std::uint64_t warm_chunks = 0;
  int runs = 0;
  for (auto _ : state) {
    int seed = 5'000'000 + runs * files;
    std::string tag = std::to_string(runs) + "/";
    auto tree = small_file_tree(files, kFileBytes, seed, "scale" + tag);
    double cold = env.deliver_tree_ms(tree);
    if (cold < 0) {
      state.SkipWithError("bundle delivery failed");
      return;
    }
    cold_ms += cold;
    std::uint64_t applied_before = env.receiver_xfer().chunks_applied();
    for (auto& [name, blob] : tree) name = "re" + name;
    double warm = env.deliver_tree_ms(std::move(tree));
    if (warm < 0) {
      state.SkipWithError("warm bundle delivery failed");
      return;
    }
    warm_ms += warm;
    warm_chunks += env.receiver_xfer().chunks_applied() - applied_before;
    ++runs;
  }
  if (runs == 0) return;
  state.counters["files"] = files;
  state.counters["cold_virtual_ms"] = cold_ms / runs;
  state.counters["warm_virtual_ms"] = warm_ms / runs;
  state.counters["speedup"] = cold_ms / warm_ms;
  state.counters["warm_payload_chunks"] =
      static_cast<double>(warm_chunks) / runs;
  state.SetLabel("bundle stage-in at scale FZJ->LRZ");
}
BENCHMARK(BM_SmallFilesBundleScale)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Iterations(1);

/// Local interning: SHA-256-bound cold path vs the dedup fast path
/// (digest + refcount bump, no copy). Real wall-clock time.
void BM_InternDedup(benchmark::State& state) {
  auto chunk_store = std::make_shared<store::ChunkStore>();
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  bool warm = state.range(1) != 0;
  util::Bytes content(bytes);
  std::uint32_t x = 0x12345678;
  for (auto& b : content) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  crypto::Digest checksum = crypto::sha256(content);
  if (warm) {
    // Keep one resident copy so every iteration hits the dedup path.
    auto pin = store::intern_bytes(chunk_store, content, checksum, store::kDefaultStoreChunkBytes);
    benchmark::DoNotOptimize(pin);
    for (auto _ : state) {
      auto p = store::intern_bytes(chunk_store, content, checksum, store::kDefaultStoreChunkBytes);
      benchmark::DoNotOptimize(p);
    }
  } else {
    for (auto _ : state) {
      auto p = store::intern_bytes(chunk_store, content, checksum, store::kDefaultStoreChunkBytes);
      benchmark::DoNotOptimize(p);
      state.PauseTiming();
      p = util::make_error(util::ErrorCode::kInternal, "drop");
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(warm ? "dedup hit (no copy)" : "cold intern (hash+copy)");
}
BENCHMARK(BM_InternDedup)
    ->ArgsProduct({{1 << 20, 16 << 20}, {0, 1}});

/// Spill-tier round trip: every read faults the coldest chunk back in
/// and pushes another out (budget fits half the working set).
void BM_SpillFaultRoundTrip(benchmark::State& state) {
  store::ChunkStore chunk_store(
      store::ChunkStore::Config{.resident_budget_bytes = 8 << 20});
  chunk_store.set_spill_backend(std::make_shared<store::MemorySpillBackend>());
  constexpr std::uint32_t kChunk = 1 << 20;
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 16; ++i) {
    util::Bytes data(kChunk);
    std::uint32_t x = 77 + i;
    for (auto& b : data) {
      x = x * 1103515245u + 12345u;
      b = static_cast<std::uint8_t>(x >> 24);
    }
    digests.push_back(crypto::chunk_content_digest(data));
    (void)chunk_store.add_chunk(digests.back(), data);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto data = chunk_store.read(digests[next]);
    benchmark::DoNotOptimize(data);
    next = (next + 1) % digests.size();
  }
  state.counters["faults"] = static_cast<double>(chunk_store.stats().faults);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kChunk);
  state.SetLabel("LRU eviction + fault-back, 2x over budget");
}
BENCHMARK(BM_SpillFaultRoundTrip);

}  // namespace

BENCHMARK_MAIN();
