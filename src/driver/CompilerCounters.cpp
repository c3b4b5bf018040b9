//===- driver/CompilerCounters.cpp -----------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerCounters.h"

using namespace exo;
using namespace exo::driver;

CompilerCounters CompilerCounters::global() {
  return {smt::solverGlobalStats(), smt::solverQueryCacheStats(),
          analysis::effectCacheStats(), smt::termInternerStats(),
          backend::JitBackend::cacheStats()};
}

CompilerCounters
CompilerCounters::since(const CompilerCounters &Before) const {
  return {Solver.since(Before.Solver), QueryCache.since(Before.QueryCache),
          EffectCache.since(Before.EffectCache),
          TermInterner.since(Before.TermInterner),
          JitCache.since(Before.JitCache)};
}

support::Json CompilerCounters::toJson() const {
  return support::Json::object()
      .set("solver", Solver.toJson())
      .set("query_cache", QueryCache.toJson())
      .set("effect_cache", EffectCache.toJson())
      .set("term_interner", TermInterner.toJson())
      .set("jit_cache", JitCache.toJson());
}
