//===- perfbench/Common.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <sys/resource.h>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
}

double perfbench::nowMs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb(bool WithChildren) {
  struct rusage Self, Children;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  long KiB = WithChildren ? std::max(Self.ru_maxrss, Children.ru_maxrss)
                          : Self.ru_maxrss;
  return static_cast<double>(KiB) / 1024.0;
}

void perfbench::clearCompilerCaches() {
  exo::smt::clearTermInterner();
  exo::smt::clearSolverQueryCache();
  exo::analysis::clearEffectCache();
  malloc_trim(0);
}

CompilerCounters CompilerCounters::now() {
  return {exo::smt::solverGlobalStats(), exo::smt::solverQueryCacheStats(),
          exo::smt::termInternerStats(), exo::analysis::effectCacheStats()};
}

CompilerCounters
CompilerCounters::since(const CompilerCounters &Before) const {
  CompilerCounters D;
  const CompilerCounters &A = Before;
  D.Solver.NumQueries = Solver.NumQueries - A.Solver.NumQueries;
  D.Solver.NumUnknown = Solver.NumUnknown - A.Solver.NumUnknown;
  D.Solver.SimplifyDecided = Solver.SimplifyDecided - A.Solver.SimplifyDecided;
  D.Solver.FastPathHits = Solver.FastPathHits - A.Solver.FastPathHits;
  D.Solver.NumLiterals = Solver.NumLiterals - A.Solver.NumLiterals;
  D.Query.Hits = Query.Hits - A.Query.Hits;
  D.Query.Misses = Query.Misses - A.Query.Misses;
  D.Query.CrossJobHits = Query.CrossJobHits - A.Query.CrossJobHits;
  D.Terms.Hits = Terms.Hits - A.Terms.Hits;
  D.Terms.Misses = Terms.Misses - A.Terms.Misses;
  D.Effects.Hits = Effects.Hits - A.Effects.Hits;
  D.Effects.Misses = Effects.Misses - A.Effects.Misses;
  D.Effects.CrossCompileHits =
      Effects.CrossCompileHits - A.Effects.CrossCompileHits;
  return D;
}

double perfbench::ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

void perfbench::reportCompilerCounters(Report &R, const CompilerCounters &C) {
  auto Count = [&](const std::string &Name, uint64_t V) {
    R.metric(Name, static_cast<double>(V), "count");
  };
  Count("smt.queries", C.Solver.NumQueries);
  Count("smt.simplify_decided", C.Solver.SimplifyDecided);
  Count("smt.fastpath_hits", C.Solver.FastPathHits);
  Count("smt.cooper_literals", C.Solver.NumLiterals);
  Count("smt.unknown", C.Solver.NumUnknown);
  uint64_t Q = C.Query.Hits + C.Query.Misses;
  Count("smt.query_cache.lookups", Q);
  R.metric("smt.query_cache.hit_ratio", ratio(C.Query.Hits, Q), "ratio");
  Count("smt.query_cache.cross_job_hits", C.Query.CrossJobHits);
  uint64_t T = C.Terms.Hits + C.Terms.Misses;
  Count("smt.term_interner.lookups", T);
  R.metric("smt.term_interner.hit_ratio", ratio(C.Terms.Hits, T), "ratio");
  uint64_t E = C.Effects.Hits + C.Effects.Misses;
  Count("analysis.effect_cache.lookups", E);
  R.metric("analysis.effect_cache.hit_ratio", ratio(C.Effects.Hits, E),
           "ratio");
  Count("analysis.effect_cache.cross_compile_hits", C.Effects.CrossCompileHits);
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  // JSON has no NaN or infinity; such a value is a benchmark bug.
  if (!std::isfinite(Value)) {
    check(false, "metric " + Name + " is not a finite number");
    Value = 0;
  }
  Metrics[Name] = {Value, Unit};
}

void Report::info(const std::string &Key, const std::string &Value) {
  std::string Quoted = "\"";
  for (char C : Value) {
    if (C == '"' || C == '\\')
      Quoted += '\\';
    Quoted += C == '\n' ? ' ' : C;
  }
  Info[Key] = Quoted + "\"";
}

void Report::info(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Info[Key] = Buf;
}

void Report::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
  }
}

void Report::print() const {
  const char *Sep = "";
  std::printf("info {");
  for (const auto &[K, V] : Info) {
    std::printf("%s\"%s\": %s", Sep, K.c_str(), V.c_str());
    Sep = ", ";
  }
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  Sep = "";
  for (const auto &[Name, VU] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                Name.c_str(), VU.first, VU.second.c_str());
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}
