// C4 — incarnation throughput: translating abstract tasks into the four
// vendor dialects via translation tables (§5.5), plus a serial-vs-
// parallel ablation for bulk fan-out (DESIGN.md decision 1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "batch/target_system.h"
#include "njs/incarnation.h"

namespace {

using namespace unicore;
using resources::Architecture;

ajo::UserTask make_task(int i) {
  ajo::UserTask task;
  task.set_name("task-" + std::to_string(i));
  task.executable = "app";
  task.arguments = {"-i", std::to_string(i)};
  task.environment = {{"OMP_NUM_THREADS", "4"}};
  task.set_resource_request({16 + i % 48, 3'600, 1'024, 0, 64});
  task.behavior.nominal_seconds = 60;
  return task;
}

batch::SystemConfig system_for(Architecture arch) {
  switch (arch) {
    case Architecture::kCrayT3E: return batch::make_cray_t3e("v", 512);
    case Architecture::kFujitsuVpp700:
      return batch::make_fujitsu_vpp700("v", 64);
    case Architecture::kIbmSp2: return batch::make_ibm_sp2("v", 128);
    case Architecture::kNecSx4: return batch::make_nec_sx4("v", 4);
    default: {
      batch::SystemConfig config;
      config.vsite = "v";
      return config;
    }
  }
}

void BM_IncarnateTask(benchmark::State& state) {
  auto arch = static_cast<Architecture>(state.range(0));
  batch::SystemConfig config = system_for(arch);
  njs::TranslationTable table = njs::default_translation_table(arch);
  ajo::UserTask task = make_task(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(njs::incarnate(task, config, table, "proj"));
  state.SetLabel(batch::dialect_name(arch));
}
BENCHMARK(BM_IncarnateTask)
    ->Arg(static_cast<int>(Architecture::kCrayT3E))
    ->Arg(static_cast<int>(Architecture::kFujitsuVpp700))
    ->Arg(static_cast<int>(Architecture::kIbmSp2))
    ->Arg(static_cast<int>(Architecture::kNecSx4))
    ->Arg(static_cast<int>(Architecture::kGenericUnix));

void BM_IncarnateBulkSerial(benchmark::State& state) {
  batch::SystemConfig config = system_for(Architecture::kCrayT3E);
  njs::TranslationTable table =
      njs::default_translation_table(Architecture::kCrayT3E);
  std::vector<ajo::UserTask> tasks;
  for (int i = 0; i < state.range(0); ++i) tasks.push_back(make_task(i));
  for (auto _ : state) {
    std::size_t ok = 0;
    for (const auto& task : tasks)
      if (njs::incarnate(task, config, table, "proj").ok()) ++ok;
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncarnateBulkSerial)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IncarnateBulkParallel(benchmark::State& state) {
  batch::SystemConfig config = system_for(Architecture::kCrayT3E);
  njs::TranslationTable table =
      njs::default_translation_table(Architecture::kCrayT3E);
  std::vector<ajo::UserTask> tasks;
  for (int i = 0; i < state.range(0); ++i) tasks.push_back(make_task(i));
  // One thread per hardware thread. incarnate() touches no shared state;
  // the threads share only the next unclaimed task index, and each
  // writes only its own slot of `ok`. They claim kChunk tasks at a time
  // rather than a fixed quarter each, so a thread the host preempts
  // does not hold up the whole batch.
  constexpr std::size_t kChunk = 16;
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> ok(threads);
  std::atomic<std::size_t> next{0};
  for (auto _ : state) {
    next = 0;
    {
      std::vector<std::jthread> workers;  // joined as the block ends
      for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
          std::size_t done = 0;
          for (std::size_t begin = next.fetch_add(kChunk);
               begin < tasks.size(); begin = next.fetch_add(kChunk)) {
            const std::size_t end = std::min(tasks.size(), begin + kChunk);
            for (std::size_t i = begin; i < end; ++i)
              if (njs::incarnate(tasks[i], config, table, "proj").ok()) ++done;
          }
          ok[t] = done;
        });
    }
    benchmark::DoNotOptimize(ok.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["threads"] = static_cast<double>(threads);
}
// Wall-clock rate: the calling thread's CPU time leaves out the workers.
BENCHMARK(BM_IncarnateBulkParallel)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->UseRealTime();

void BM_DialectParse(benchmark::State& state) {
  // The batch front-end's validation cost per submitted script.
  auto arch = static_cast<Architecture>(state.range(0));
  batch::SystemConfig config = system_for(arch);
  njs::TranslationTable table = njs::default_translation_table(arch);
  auto job = njs::incarnate(make_task(1), config, table, "proj").value();
  for (auto _ : state)
    benchmark::DoNotOptimize(batch::parse_directives(arch, job.script));
  state.SetLabel(batch::dialect_name(arch));
}
BENCHMARK(BM_DialectParse)
    ->Arg(static_cast<int>(Architecture::kCrayT3E))
    ->Arg(static_cast<int>(Architecture::kIbmSp2));

}  // namespace

BENCHMARK_MAIN();
