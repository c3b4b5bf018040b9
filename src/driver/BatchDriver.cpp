//===- driver/BatchDriver.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace exo;
using namespace exo::driver;

namespace {

/// Per-job state shared between the worker that runs the job and the
/// watchdog that supervises it. Kept separate from JobResult so the
/// watchdog never races the worker's result assignment: workers write
/// State/StartMillis, the watchdog writes Overdue, and the merge into
/// JobResult happens only after both have finished.
struct JobTrack {
  std::atomic<int> State{0}; ///< 0 = pending, 1 = running, 2 = done
  std::atomic<int64_t> StartMillis{0};
  std::atomic<bool> Overdue{false};
};

int64_t nowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

BatchResult BatchDriver::run(const std::vector<CompileJob> &Jobs) const {
  BatchResult Out;
  Out.Threads = Threads == 0 ? 1 : Threads;
  Out.Jobs.resize(Jobs.size());

  CompilerCounters Before = CompilerCounters::global();

  std::unique_ptr<JobTrack[]> Track(new JobTrack[Jobs.size()]);

  auto Start = std::chrono::steady_clock::now();
  {
    CompileSession Session(SOpts);
    // 0 workers = run submissions inline on this thread: the serial
    // baseline takes the exact same code path as the parallel one.
    support::ThreadPool Pool(Threads <= 1 ? 0 : Threads);

    // With a per-job deadline configured, a watchdog thread flags jobs
    // still running past it. Cancellation is cooperative (the session's
    // thread-local deadline unwinds solver loops), so the watchdog never
    // kills anything — it guarantees the batch report calls an overdue
    // job a failure even if the job's own polling never tripped. The
    // grace period covers post-solver work (codegen, fallback emission)
    // that legitimately runs after the deadline fires.
    std::atomic<bool> WatchdogStop{false};
    std::thread Watchdog;
    if (SOpts.DeadlineMillis > 0) {
      int64_t Limit = SOpts.DeadlineMillis;
      int64_t Grace = Limit / 4 > 25 ? Limit / 4 : 25;
      JobTrack *T = Track.get();
      size_t N = Jobs.size();
      Watchdog = std::thread([&WatchdogStop, T, N, Limit, Grace] {
        while (!WatchdogStop.load(std::memory_order_acquire)) {
          int64_t Now = nowMillis();
          for (size_t I = 0; I < N; ++I) {
            if (T[I].State.load(std::memory_order_acquire) != 1)
              continue;
            int64_t Began = T[I].StartMillis.load(std::memory_order_acquire);
            if (Now - Began > Limit + Grace)
              T[I].Overdue.store(true, std::memory_order_release);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }

    for (size_t I = 0; I < Jobs.size(); ++I) {
      const CompileJob *Job = &Jobs[I];
      JobResult *Slot = &Out.Jobs[I];
      JobTrack *T = &Track[I];
      Pool.submit([&Session, Job, Slot, T] {
        T->StartMillis.store(nowMillis(), std::memory_order_release);
        T->State.store(1, std::memory_order_release);
        *Slot = Session.run(*Job);
        T->State.store(2, std::memory_order_release);
      });
    }
    Pool.waitIdle();
    if (Watchdog.joinable()) {
      WatchdogStop.store(true, std::memory_order_release);
      Watchdog.join();
    }
  }
  Out.WallMillis = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  for (size_t I = 0; I < Out.Jobs.size(); ++I) {
    JobResult &R = Out.Jobs[I];
    if (Track[I].Overdue.load(std::memory_order_acquire)) {
      R.DeadlineMiss = true;
      // An overdue job is a failure unless the fallback already salvaged
      // it — degraded output is the sanctioned way past a blown deadline.
      if (R.Ok && !R.Degraded) {
        R.Ok = false;
        if (R.ErrorKind.empty()) {
          R.ErrorKind = "deadline";
          R.ErrorMessage = "job exceeded its wall-clock deadline";
        }
      }
    }
    Out.AllOk = Out.AllOk && R.Ok;
    if (!R.Ok)
      ++Out.NumFailed;
    if (R.Degraded)
      ++Out.NumDegraded;
    if (R.DeadlineMiss)
      ++Out.NumDeadlineMiss;
    if (R.Retries > 0)
      ++Out.NumRetried;
    Out.IncrementalHits += R.IncrementalHits;
    Out.IncrementalMisses += R.IncrementalMisses;
    Out.IncrementalProbesSkipped += R.IncrementalProbesSkipped;
  }
  Out.Cache = CompilerCounters::global().since(Before);
  return Out;
}

static support::Json jobJson(const JobResult &J) {
  support::Json O = support::Json::object();
  O.set("name", J.Name)
      .set("status", J.status())
      .set("ok", J.Ok)
      .set("wall_ms", J.WallMillis)
      .set("retries", J.Retries)
      .set("retry_probes", J.RetryProbes)
      .set("retry_path", J.RetryPath)
      .set("final_max_literals", J.FinalMaxLiterals)
      .set("deadline_miss", J.DeadlineMiss)
      .set("output_bytes", J.Output.size())
      .set("solver", J.Solver.toJson())
      .set("query_cache", J.QueryCache.toJson())
      .set("incremental_hits", J.IncrementalHits)
      .set("incremental_misses", J.IncrementalMisses)
      .set("incremental_probes_skipped", J.IncrementalProbesSkipped);
  // Degraded jobs carry the schedule's failure alongside the reference
  // output, so report error detail for them too.
  if (!J.Ok || J.Degraded) {
    O.set("error_kind", J.ErrorKind).set("error", J.ErrorMessage);
    if (!J.ErrorOp.empty())
      O.set("op", J.ErrorOp);
    if (!J.ErrorPattern.empty())
      O.set("pattern", J.ErrorPattern);
    if (!J.ErrorVerdict.empty())
      O.set("verdict", J.ErrorVerdict);
  }
  return O;
}

support::Json exo::driver::batchJson(const BatchResult &R) {
  support::Json Jobs = support::Json::array();
  for (const JobResult &J : R.Jobs)
    Jobs.push(jobJson(J));
  return support::Json::object()
      .set("threads", R.Threads)
      .set("wall_ms", R.WallMillis)
      .set("all_ok", R.AllOk)
      .set("failed", R.NumFailed)
      .set("degraded", R.NumDegraded)
      .set("deadline_misses", R.NumDeadlineMiss)
      .set("retried", R.NumRetried)
      .set("cache", R.Cache.toJson()
                        .set("incremental_hits", R.IncrementalHits)
                        .set("incremental_misses", R.IncrementalMisses)
                        .set("incremental_probes_skipped",
                             R.IncrementalProbesSkipped))
      .set("jobs", std::move(Jobs));
}
