//===- driver/BatchDriver.h - Parallel batch compilation -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans a list of CompileJobs across a work-stealing thread pool, one
/// CompileSession invocation per job, and collects per-job results plus
/// the batch-wide delta of the compiler counters. Job failures are
/// recorded, not fatal. Because every shared cache returns exactly what a
/// cold computation would and codegen naming is procedure-local, the
/// produced C is bit-identical regardless of thread count or interleaving.
///
/// When SessionOptions carries a deadline, a watchdog thread supervises
/// the batch: any job still running past its deadline (plus a grace
/// period) is marked overdue, and overdue jobs are reported failed with a
/// deadline miss — without killing the pool. Cancellation itself is
/// cooperative (the session's thread-local deadline makes solver loops
/// unwind), so the watchdog is the safety net that keeps the *report*
/// honest even for code paths that poll rarely.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_DRIVER_BATCHDRIVER_H
#define EXO_DRIVER_BATCHDRIVER_H

#include "driver/CompileSession.h"
#include "driver/CompilerCounters.h"

namespace exo {
namespace driver {

struct BatchResult {
  std::vector<JobResult> Jobs; ///< in input order
  double WallMillis = 0;
  unsigned Threads = 1;
  bool AllOk = true;          ///< degraded jobs count as Ok
  unsigned NumFailed = 0;     ///< jobs with Ok == false
  unsigned NumDegraded = 0;   ///< jobs emitted from the reference fallback
  unsigned NumDeadlineMiss = 0;
  unsigned NumRetried = 0;    ///< jobs that needed at least one retry
  /// Compiler counters over the batch (meaningful when no other threads
  /// compile concurrently with it). The query cache's CrossJobHits are
  /// verdicts one job reused from another (batch siblings or earlier
  /// compiles in this process); the effect cache's CrossCompileHits are
  /// summaries rehydrated from another compile's equal statement.
  CompilerCounters Cache;
  /// Incremental re-analysis activity, summed over the per-job
  /// EffectSnapshots (DESIGN.md, "Incremental analysis").
  uint64_t IncrementalHits = 0;
  uint64_t IncrementalMisses = 0;
  uint64_t IncrementalProbesSkipped = 0;
};

/// Runs batches with a fixed worker count. Threads <= 1 runs inline on
/// the calling thread (the serial baseline), with identical results.
class BatchDriver {
public:
  explicit BatchDriver(unsigned Threads, SessionOptions SOpts = {})
      : Threads(Threads), SOpts(SOpts) {}

  BatchResult run(const std::vector<CompileJob> &Jobs) const;

private:
  unsigned Threads;
  SessionOptions SOpts;
};

/// The exocc-batch --json report of \p R: batch totals, the "cache"
/// counters, and one object per job (README.md, "exocc-batch").
support::Json batchJson(const BatchResult &R);

} // namespace driver
} // namespace exo

#endif // EXO_DRIVER_BATCHDRIVER_H
