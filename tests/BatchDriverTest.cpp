//===- tests/BatchDriverTest.cpp - Batch compilation tests -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for CompileSession / BatchDriver: parallel batches must produce
/// byte-identical output to serial ones, job failures must be recorded
/// with their structured payload rather than aborting the batch, and
/// per-session solver options must actually reach the solver.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"

#include "analysis/EffectCache.h"
#include "frontend/Parser.h"
#include "smt/QueryCache.h"
#include "scheduling/Schedule.h"
#include "smt/Simplify.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

using namespace exo;
using namespace exo::driver;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

/// Disable the preprocessing pipeline for tests that starve the Cooper
/// literal budget: with the pipeline on, the staging containment proofs
/// are decided without consuming any literals, so a one-literal budget
/// no longer fails. The config is a process-global atomic, so this also
/// covers the BatchDriver worker threads.
struct ScopedSimplifyOff {
  smt::SimplifyConfig Saved = smt::simplifyConfig();
  ScopedSimplifyOff() { smt::setSimplifyEnabled(false); }
  ~ScopedSimplifyOff() { smt::setSimplifyConfig(Saved); }
};

const char *GemmSrc = R"(
@proc
def gemm(A: R[64, 64], B: R[64, 64], C: R[64, 64]):
    for i in seq(0, 64):
        for j in seq(0, 64):
            for k in seq(0, 64):
                C[i, j] += A[i, k] * B[k, j]
)";

/// A cheap job: parse, tile, emit.
CompileJob tiledGemmJob(std::string Name, int Factor) {
  return {std::move(Name),
          [Factor]() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(GemmSrc);
            if (!P)
              return P.error();
            Schedule S(*P);
            S.split("i", Factor, "io", "ii", SplitTail::Perfect)
                .split("j", Factor, "jo", "ji", SplitTail::Perfect)
                .reorder("ii")
                .simplify();
            auto Q = S.proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/{}};
}

/// A job that fails inside a scheduling operator (bad pattern).
CompileJob failingJob() {
  return {"bad_pattern",
          []() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(GemmSrc);
            if (!P)
              return P.error();
            auto Q = Schedule(*P).split("nosuchloop", 8, "o", "i").proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/{}};
}

TEST(BatchDriverTest, ParallelOutputBitIdenticalToSerial) {
  std::vector<CompileJob> Jobs;
  for (int F : {4, 8, 16, 32})
    Jobs.push_back(tiledGemmJob("gemm_tile" + std::to_string(F), F));

  BatchResult Serial = BatchDriver(1).run(Jobs);
  BatchResult Par = BatchDriver(4).run(Jobs);

  ASSERT_EQ(Serial.Jobs.size(), Jobs.size());
  ASSERT_EQ(Par.Jobs.size(), Jobs.size());
  EXPECT_TRUE(Serial.AllOk);
  EXPECT_TRUE(Par.AllOk);
  EXPECT_EQ(Par.Threads, 4u);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(Par.Jobs[I].Name, Serial.Jobs[I].Name) << "order must hold";
    EXPECT_EQ(Par.Jobs[I].Output, Serial.Jobs[I].Output)
        << "job " << Serial.Jobs[I].Name;
    EXPECT_FALSE(Serial.Jobs[I].Output.empty());
  }
}

TEST(BatchDriverTest, FailureIsRecordedNotFatal) {
  std::vector<CompileJob> Jobs;
  Jobs.push_back(tiledGemmJob("ok_before", 8));
  Jobs.push_back(failingJob());
  Jobs.push_back(tiledGemmJob("ok_after", 16));

  BatchResult R = BatchDriver(2).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 3u);
  EXPECT_FALSE(R.AllOk);
  EXPECT_TRUE(R.Jobs[0].Ok);
  EXPECT_TRUE(R.Jobs[2].Ok);

  const JobResult &Bad = R.Jobs[1];
  EXPECT_FALSE(Bad.Ok);
  EXPECT_FALSE(Bad.ErrorKind.empty());
  EXPECT_FALSE(Bad.ErrorMessage.empty());
  // The facade stamps the structured payload: which operator, with which
  // (expanded) pattern.
  EXPECT_EQ(Bad.ErrorOp, "split");
  EXPECT_EQ(Bad.ErrorPattern, "for nosuchloop in _: _");
}

TEST(BatchDriverTest, SessionBudgetReachesSolver) {
  // With a one-literal budget the staging containment proof cannot
  // complete; the job must fail with the budget-exhausted verdict in its
  // payload. The preprocessing pipeline would decide these queries
  // without spending literals, so switch it off to keep Cooper on the
  // hook.
  ScopedSimplifyOff Off;
  std::vector<CompileJob> Jobs;
  Jobs.push_back({"starved",
                  []() -> Expected<std::vector<ProcRef>> {
                    auto P = frontend::parseProc(GemmSrc);
                    if (!P)
                      return P.error();
                    auto Q = Schedule(*P)
                                 .split("i", 8, "io", "ii",
                                        SplitTail::Perfect)
                                 .stage("for j in _: _", 1,
                                        "A[8 * io : 8 * io + 8, 0 : 64]",
                                        "a_tile")
                                 .proc();
                    if (!Q)
                      return Q.error();
                    return std::vector<ProcRef>{*Q};
                  },
                  /*BuildReference=*/{}});

  SessionOptions Starved;
  Starved.MaxLiterals = 1;
  Starved.UseQueryCache = false;
  BatchResult R = BatchDriver(1, Starved).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_FALSE(R.Jobs[0].Ok);
  EXPECT_EQ(R.Jobs[0].ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownBudget));

  // The same job under default options succeeds — the scoped defaults did
  // not leak out of the starved session.
  BatchResult Ok = BatchDriver(1).run(Jobs);
  EXPECT_TRUE(Ok.AllOk) << Ok.Jobs[0].ErrorMessage;
}

TEST(BatchDriverTest, DrainCompletesEveryJobExactlyOnceUnderWatchdog) {
  // Two workers, six jobs: fast jobs queued behind Build lambdas that
  // sleep well past the deadline without ever polling it. Cooperative
  // cancellation can't see the sleepers — the watchdog must. The drain
  // contract under test: run() returns only after every job (queued,
  // in-flight, or overdue) reached a terminal result, in input order,
  // exactly once, and the pool survives to run another batch.
  auto sleepyJob = [](std::string Name, int Millis) {
    return CompileJob{std::move(Name),
                      [Millis]() -> Expected<std::vector<ProcRef>> {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(Millis));
                        auto P = frontend::parseProc(GemmSrc);
                        if (!P)
                          return P.error();
                        return std::vector<ProcRef>{*P};
                      },
                      /*BuildReference=*/{}};
  };
  std::vector<CompileJob> Jobs;
  Jobs.push_back(sleepyJob("overdue_a", 900));
  Jobs.push_back(tiledGemmJob("fast_1", 4));
  Jobs.push_back(sleepyJob("overdue_b", 900));
  Jobs.push_back(tiledGemmJob("fast_2", 8));
  Jobs.push_back(tiledGemmJob("fast_3", 16));
  Jobs.push_back(tiledGemmJob("fast_4", 32));

  SessionOptions SO;
  SO.DeadlineMillis = 400; // per job, measured from job start
  BatchResult R = BatchDriver(2, SO).run(Jobs);

  ASSERT_EQ(R.Jobs.size(), Jobs.size());
  std::set<std::string> Names;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(R.Jobs[I].Name, Jobs[I].Name) << "order must hold";
    EXPECT_TRUE(Names.insert(R.Jobs[I].Name).second);
    // Terminal exactly once: success carries output, failure a diagnosis.
    if (R.Jobs[I].Ok)
      EXPECT_FALSE(R.Jobs[I].Output.empty()) << R.Jobs[I].Name;
    else
      EXPECT_FALSE(R.Jobs[I].ErrorKind.empty()) << R.Jobs[I].Name;
  }

  EXPECT_FALSE(R.AllOk);
  EXPECT_GE(R.NumDeadlineMiss, 2u);
  for (size_t I : {size_t(0), size_t(2)}) {
    EXPECT_FALSE(R.Jobs[I].Ok) << R.Jobs[I].Name;
    EXPECT_TRUE(R.Jobs[I].DeadlineMiss) << R.Jobs[I].Name;
  }
  for (size_t I : {size_t(1), size_t(3), size_t(4), size_t(5)})
    EXPECT_TRUE(R.Jobs[I].Ok)
        << R.Jobs[I].Name << ": " << R.Jobs[I].ErrorMessage;

  // The overdue jobs were reported, not killed; the same configuration
  // runs a clean follow-up batch.
  BatchResult Again = BatchDriver(2, SO).run({tiledGemmJob("after", 8)});
  EXPECT_TRUE(Again.AllOk)
      << (Again.Jobs.empty() ? "" : Again.Jobs[0].ErrorMessage);
}

TEST(BatchDriverTest, SecondCompileOfSameKernelHitsAcrossJobs) {
  // Compiling the same kernel twice in one process must reuse solver and
  // effect work across the two jobs: the second compile parses fresh IR
  // (new Syms, new VarIds), so any reuse proves the caches key on
  // canonical content, not on identities. This is the regression guard
  // for the cross-compile amortization exocc-serve and exocc-tune rely
  // on.
  smt::clearSolverQueryCache();
  analysis::clearEffectCache();

  std::vector<CompileJob> Suite = standardKernelSuite();
  std::vector<CompileJob> One;
  for (CompileJob &J : Suite)
    if (J.Name == "fig4a_gemmini_matmul")
      One.push_back(J);
  ASSERT_EQ(One.size(), 1u);

  BatchResult Cold = BatchDriver(1).run(One);
  ASSERT_TRUE(Cold.AllOk) << Cold.Jobs[0].ErrorMessage;

  BatchResult Warm = BatchDriver(1).run(One);
  ASSERT_TRUE(Warm.AllOk) << Warm.Jobs[0].ErrorMessage;

  EXPECT_GT(Warm.Cache.QueryCache.CrossJobHits, 0u)
      << "recompile should hit query-cache entries owned by the first job";
  EXPECT_GT(Warm.Cache.EffectCache.CrossCompileHits, 0u)
      << "recompile should rehydrate the first job's effect summaries";
  // The per-job counters tell the same story.
  EXPECT_GT(Warm.Jobs[0].QueryCache.CrossJobHits, 0u);
  EXPECT_EQ(Warm.Jobs[0].Output, Cold.Jobs[0].Output)
      << "warm compile must be byte-identical to cold";
}

/// The value at a dotted key path of a parsed report, or null.
const support::Json *at(const support::Json &J, const std::string &Path) {
  const support::Json *Cur = &J;
  size_t Pos = 0;
  while (Cur && Pos <= Path.size()) {
    size_t Dot = Path.find('.', Pos);
    if (Dot == std::string::npos)
      Dot = Path.size();
    Cur = Cur->get(Path.substr(Pos, Dot - Pos));
    Pos = Dot + 1;
  }
  return Cur;
}

TEST(CompilerCountersTest, SinceSubtractsCountersAndKeepsGauges) {
  CompilerCounters A, B;
  A.QueryCache.Hits = 5;
  A.QueryCache.Size = 10;
  A.EffectCache.CrossCompileHits = 1;
  A.EffectCache.CanonSize = 7;
  A.TermInterner.Live = 100;
  A.Solver.NumQueries = 2;
  A.JitCache.Compiles = 4;
  B = A;
  B.QueryCache.Hits = 8;
  B.QueryCache.Size = 3;
  B.EffectCache.CrossCompileHits = 6;
  B.TermInterner.Live = 40;
  B.Solver.NumQueries = 9;
  B.JitCache.Compiles = 4;

  CompilerCounters D = B.since(A);
  EXPECT_EQ(D.QueryCache.Hits, 3u);
  EXPECT_EQ(D.QueryCache.Size, 3u) << "a gauge is the later snapshot's";
  EXPECT_EQ(D.EffectCache.CrossCompileHits, 5u);
  EXPECT_EQ(D.EffectCache.CanonSize, 7u);
  EXPECT_EQ(D.TermInterner.Live, 40u);
  EXPECT_EQ(D.Solver.NumQueries, 7u);
  EXPECT_EQ(D.JitCache.Compiles, 0u);

  auto J = support::Json::parse(D.toJson().dump());
  ASSERT_TRUE(J) << J.error().str();
  ASSERT_NE(at(*J, "query_cache.cross_job_hits"), nullptr);
  ASSERT_NE(at(*J, "effect_cache.cross_compile_hits"), nullptr);
  EXPECT_EQ(at(*J, "effect_cache.cross_compile_hits")->asInt(), 5);
  EXPECT_EQ(at(*J, "query_cache.size")->asInt(), 3);
  EXPECT_EQ(at(*J, "solver.queries")->asInt(), 7);
  EXPECT_EQ(at(*J, "term_interner.live")->asInt(), 40);
  EXPECT_NE(at(*J, "jit_cache.compiles"), nullptr);

  // The process-wide snapshot renders under the same keys.
  auto G = support::Json::parse(CompilerCounters::global().toJson().dump());
  ASSERT_TRUE(G) << G.error().str();
  EXPECT_NE(at(*G, "query_cache.cross_job_hits"), nullptr);
}

TEST(BatchDriverTest, BatchJsonParsesAndCarriesCountersAndErrors) {
  const std::string Msg = "bad \"quote\", back\\slash\nsecond line";
  std::vector<CompileJob> Jobs;
  Jobs.push_back(tiledGemmJob("ok", 8));
  Jobs.push_back({"awkward_error",
                  [Msg]() -> Expected<std::vector<ProcRef>> {
                    return makeError(Error::Kind::Scheduling, Msg);
                  },
                  /*BuildReference=*/{}});
  BatchResult R = BatchDriver(1).run(Jobs);
  ASSERT_EQ(R.NumFailed, 1u);

  auto J = support::Json::parse(batchJson(R).dump());
  ASSERT_TRUE(J) << J.error().str();
  ASSERT_NE(at(*J, "cache.query_cache.cross_job_hits"), nullptr);
  ASSERT_NE(at(*J, "cache.effect_cache.cross_compile_hits"), nullptr);
  EXPECT_EQ(at(*J, "cache.solver.queries")->asInt(),
            static_cast<int64_t>(R.Cache.Solver.NumQueries));
  EXPECT_EQ(J->getInt("failed"), 1);
  const support::Json *JobsJ = J->get("jobs");
  ASSERT_NE(JobsJ, nullptr);
  ASSERT_EQ(JobsJ->items().size(), 2u);
  const support::Json &Bad = JobsJ->items()[1];
  EXPECT_EQ(Bad.getString("status"), "failed");
  EXPECT_EQ(Bad.getString("error"), Msg);
  EXPECT_EQ(Bad.getString("error_kind"), R.Jobs[1].ErrorKind);
  EXPECT_NE(at(JobsJ->items()[0], "solver.queries"), nullptr);
  EXPECT_NE(at(JobsJ->items()[0], "query_cache.cross_job_hits"), nullptr);
  // The tiled gemm's loops flow as identities, so their stabilization
  // probes are skipped and reported per job and per batch.
  EXPECT_GT(R.Jobs[0].IncrementalProbesSkipped, 0u);
  EXPECT_EQ(at(JobsJ->items()[0], "incremental_probes_skipped")->asInt(),
            static_cast<int64_t>(R.Jobs[0].IncrementalProbesSkipped));
  EXPECT_EQ(at(*J, "cache.incremental_probes_skipped")->asInt(),
            static_cast<int64_t>(R.IncrementalProbesSkipped));
}

TEST(BatchDriverTest, StandardSuiteIsWellFormed) {
  std::vector<CompileJob> Jobs = standardKernelSuite();
  EXPECT_GE(Jobs.size(), 6u);
  std::set<std::string> Names;
  for (const CompileJob &J : Jobs) {
    EXPECT_TRUE(J.Build != nullptr);
    EXPECT_TRUE(J.BuildReference != nullptr)
        << J.Name << " has no --fallback-reference target";
    EXPECT_TRUE(Names.insert(J.Name).second) << "duplicate " << J.Name;
  }
}

} // namespace
