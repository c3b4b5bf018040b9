//===- bench/parallel_compile.cpp - batch-compile benchmark ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall time of compiling the standard kernel suite serially vs. on a
/// work-stealing pool, with the shared-cache traffic as counters. Every
/// iteration starts from cold caches so the numbers measure real
/// compilation, not memoized replay. On a single-core host the parallel
/// variants document contention overhead rather than speedup — the
/// counters (identical across thread counts) are the determinism
/// evidence either way.
///
//===----------------------------------------------------------------------===//

#include "analysis/EffectCache.h"
#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"
#include "smt/QueryCache.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

using namespace exo;
using namespace exo::driver;

namespace {

void coldCaches() {
  smt::clearTermInterner();
  smt::clearSolverQueryCache();
  analysis::clearEffectCache();
}

void runBatch(benchmark::State &State, unsigned Threads) {
  std::vector<CompileJob> Jobs = standardKernelSuite();
  BatchDriver Driver(Threads);
  uint64_t Bytes = 0;
  CompilerCounters Last;
  for (auto _ : State) {
    coldCaches();
    BatchResult R = Driver.run(Jobs);
    if (!R.AllOk)
      State.SkipWithError("a batch job failed");
    Bytes = 0;
    for (const JobResult &J : R.Jobs)
      Bytes += J.Output.size();
    Last = R.Cache;
    benchmark::DoNotOptimize(R);
  }
  State.counters["threads"] = static_cast<double>(Threads);
  State.counters["c_bytes"] = static_cast<double>(Bytes);
  State.counters["solver_queries"] =
      static_cast<double>(Last.Solver.NumQueries);
  State.counters["query_cache_hits"] =
      static_cast<double>(Last.QueryCache.Hits);
  State.counters["term_hits"] = static_cast<double>(Last.TermInterner.Hits);
  State.counters["effect_hits"] = static_cast<double>(Last.EffectCache.Hits);
}

void BM_BatchCompile1(benchmark::State &State) { runBatch(State, 1); }
BENCHMARK(BM_BatchCompile1)->Unit(benchmark::kMillisecond);

void BM_BatchCompileN(benchmark::State &State) {
  unsigned N = support::ThreadPool::hardwareThreads();
  runBatch(State, N < 2 ? 2 : N);
}
BENCHMARK(BM_BatchCompileN)->Unit(benchmark::kMillisecond);

void BM_BatchCompile4(benchmark::State &State) { runBatch(State, 4); }
BENCHMARK(BM_BatchCompile4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
