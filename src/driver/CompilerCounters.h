//===- driver/CompilerCounters.h - One snapshot of the counters -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide counters of every compiler cache layer, taken
/// together: solver, solver query cache, effect-summary cache, term
/// interner and the JIT module cache. Batch, tune, fuzz, serve and the
/// benches report a compile's cache economics as the difference of two
/// snapshots, rendered by toJson() under the same keys everywhere:
///
///   {"solver": {...}, "query_cache": {...}, "effect_cache": {...},
///    "term_interner": {...}, "jit_cache": {...}}
///
/// Deltas are exact only when nothing else compiles concurrently; a job
/// that needs thread-exact numbers takes the thread-local solver and
/// query-cache snapshots instead (see CompileSession).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_DRIVER_COMPILERCOUNTERS_H
#define EXO_DRIVER_COMPILERCOUNTERS_H

#include "analysis/EffectCache.h"
#include "backend/Backend.h"
#include "smt/QueryCache.h"
#include "smt/Solver.h"
#include "smt/Term.h"
#include "support/Json.h"

namespace exo {
namespace driver {

struct CompilerCounters {
  smt::Solver::Stats Solver;
  smt::QueryCacheStats QueryCache;
  analysis::EffectCacheStats EffectCache;
  smt::TermInternerStats TermInterner;
  backend::JitBackend::CacheStats JitCache;

  /// The process-wide counters now.
  static CompilerCounters global();
  /// The counts accumulated since \p Before; gauges (cache sizes, live
  /// terms) are this snapshot's.
  CompilerCounters since(const CompilerCounters &Before) const;
  support::Json toJson() const;
};

} // namespace driver
} // namespace exo

#endif // EXO_DRIVER_COMPILERCOUNTERS_H
