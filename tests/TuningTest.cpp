//===- tests/TuningTest.cpp - Autotuner tests ------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the schedule autotuner (tuning/): the ScheduleGen trace
/// mutation/crossover operators (every mutant applies cleanly or is
/// rejected — never a crash, and never an oracle divergence, since
/// rejected steps are skipped and accepted steps went through the
/// scheduling layer's safety checks), the cost model's verify gate, and
/// the search itself — determinism at any thread count, replayability of
/// the winning trace, and the headline acceptance bar: the search must
/// rediscover a schedule within 1.5x of the hand-written Gemmini matmul.
///
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "frontend/Parser.h"
#include "testing/Oracle.h"
#include "testing/ScheduleGen.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

const char *GemmSrc = R"(
@proc
def small_gemm(A: R[8, 8], B: R[8, 8], C: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            for k in seq(0, 8):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef parse(const char *Src) {
  auto P = frontend::parseProc(Src);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

ScheduleStep step(std::string Op, std::vector<std::string> Args) {
  return ScheduleStep{std::move(Op), std::move(Args)};
}

std::vector<ScheduleStep> splitSeed() {
  return {step("split", {"i", "4", "io", "ii", "perfect"}),
          step("split", {"j", "4", "jo", "ji", "perfect"}),
          step("reorder", {"ii"}), step("simplify", {})};
}

std::string keyOf(const std::vector<ScheduleStep> &T) {
  std::string K;
  for (const ScheduleStep &S : T) {
    K += S.str();
    K += '\n';
  }
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace mutation / crossover (satellite: robustness of the search moves)
//===----------------------------------------------------------------------===//

TEST(TraceMutation, MutantsApplyOrRejectNeverCrash) {
  ProcRef P = parse(GemmSrc);
  std::vector<std::vector<ScheduleStep>> Bases = {{}, splitSeed()};
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    const auto &Base = Bases[Seed % Bases.size()];
    std::vector<ScheduleStep> T = mutateTrace(P, Base, R);
    // Syntactic validity: every step round-trips through the trace
    // parser (this is what the corpus format stores).
    for (const ScheduleStep &S : T) {
      auto Back = ScheduleStep::parse(S.str());
      ASSERT_TRUE(Back) << S.str() << ": " << Back.error().str();
      EXPECT_EQ(Back->str(), S.str());
    }
    // Lenient application partitions the trace: applied + rejected.
    LenientApplyResult A = applyTraceLenient(P, T);
    ASSERT_TRUE(A.Final != nullptr);
    EXPECT_EQ(A.Applied.size() + A.Rejected, T.size());
  }
}

TEST(TraceMutation, MutationIsDeterministicInTheSeed) {
  ProcRef P = parse(GemmSrc);
  for (uint64_t Seed : {1u, 7u, 23u}) {
    Rng R1(Seed), R2(Seed);
    EXPECT_EQ(keyOf(mutateTrace(P, splitSeed(), R1)),
              keyOf(mutateTrace(P, splitSeed(), R2)));
  }
}

TEST(TraceCrossover, ChildStepsComeFromTheParents) {
  std::vector<ScheduleStep> A = splitSeed();
  std::vector<ScheduleStep> B = {step("split", {"k", "2", "ko", "ki", "perfect"}),
                                 step("unroll", {"ko"})};
  auto FromParents = [&](const ScheduleStep &S) {
    for (const ScheduleStep &X : A)
      if (X.str() == S.str())
        return true;
    for (const ScheduleStep &X : B)
      if (X.str() == S.str())
        return true;
    return false;
  };
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    std::vector<ScheduleStep> C = crossoverTraces(A, B, R);
    EXPECT_LE(C.size(), A.size() + B.size());
    for (const ScheduleStep &S : C)
      EXPECT_TRUE(FromParents(S)) << S.str();
  }
}

TEST(TraceMutation, MutantsSampledThroughTripleOracle) {
  ProcRef P = parse(GemmSrc);
  std::vector<ArgSpec> Args(3);
  Args[0].Name = "A";
  Args[1].Name = "B";
  Args[2].Name = "C";
  for (ArgSpec &A : Args)
    A.Dims = {8, 8};
  Args[2].Written = true;

  std::vector<OracleCase> Cases;
  std::vector<ScheduleStep> Trace = splitSeed();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Rng R(Seed * 977);
    Trace = mutateTrace(P, Trace, R); // walk: mutants of mutants
    LenientApplyResult A = applyTraceLenient(P, Trace);
    OracleCase C;
    C.Reference = P;
    C.Scheduled = A.Final;
    C.Args = Args;
    C.InputSeed = Seed;
    Cases.push_back(std::move(C));
  }
  auto Out = runOracle(Cases, OracleOptions{});
  ASSERT_TRUE(Out) << Out.error().str();
  for (size_t I = 0; I < Out->size(); ++I)
    EXPECT_TRUE((*Out)[I].ok())
        << "case " << I << ": " << oracleStatusName((*Out)[I].Status) << ": "
        << (*Out)[I].Detail;
}

//===----------------------------------------------------------------------===//
// Trace round-trip for the procedure step kinds the cursor layer added
// (tile2d / auto_divide / stage_vec, plus '@' cursor navigation) — the
// corpus format, the mutator, and the tuner's seeded skeletons all
// exchange these as text.
//===----------------------------------------------------------------------===//

TEST(TraceRoundTrip, ProcedureStepKinds) {
  for (const char *Line :
       {"tile2d|i|4|4|io|ii|jo|ji|perfect", "auto_divide|i|8|io|ii",
        "stage_vec|for j in _: _|x[i, 0:8]|xv|DRAM|4|lv|ll",
        "split|t @body|2|a|b|perfect"}) {
    auto S = ScheduleStep::parse(Line);
    ASSERT_TRUE(bool(S)) << Line;
    EXPECT_EQ(S->str(), Line);
  }
  // A procedure step drives the same scheduling layer as its primitive
  // expansion: the tiled small_gemm applies cleanly from trace text.
  ProcRef P = parse(GemmSrc);
  std::vector<ScheduleStep> T = {
      step("split", {"k", "4", "ko", "ki", "perfect"}),
      step("tile2d", {"i", "4", "4", "io", "ii", "jo", "ji", "perfect"})};
  LenientApplyResult A = applyTraceLenient(P, T);
  EXPECT_EQ(A.Rejected, 0u);
  EXPECT_EQ(A.Applied.size(), 2u);
}

//===----------------------------------------------------------------------===//
// The search
//===----------------------------------------------------------------------===//

TEST(Tuner, RediscoversGemminiScheduleWithinBudget) {
  TunerProgress Before = tunerProgress();

  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 10; // generation zero == the seed templates
  O.Generations = 1;
  O.Beam = 4;
  O.Seed = 1;
  O.Threads = 4;
  TuneResult R = tune(O);

  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.HaveHandwritten);
  EXPECT_GT(R.Handwritten.SimCycles, 0u);
  // The acceptance bar: within 1.5x of the paper's hand-written
  // schedule. The seeded space contains the exact Fig. 4 pipeline, so
  // the search should in fact match it (ratio 1.0).
  EXPECT_LE(R.Best.Eval.Score, 1.5 * R.Handwritten.Score)
      << "best " << R.Best.Eval.Score << " vs handwritten "
      << R.Handwritten.Score;
  EXPECT_GT(R.Stats.Tried, 0u);
  EXPECT_GT(R.Stats.CandidatesPerSec, 0.0);

  // The search's analysis work must show up in the cross-job gauges:
  // sibling candidates share schedule-verification verdicts through the
  // canonicalized query cache.
  EXPECT_GT(R.Stats.Cache.QueryCache.CrossJobHits, 0u);

  // Progress counters (exocc-serve's stats op reads these) advanced.
  TunerProgress After = tunerProgress();
  EXPECT_GT(After.RunsFinished, Before.RunsFinished);
  EXPECT_GE(After.CandidatesTried,
            Before.CandidatesTried + R.Stats.Tried);
}

TEST(Tuner, DeterministicAcrossThreadCounts) {
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 8;
  O.Generations = 2;
  O.Beam = 3;
  O.Seed = 42;

  O.Threads = 1;
  TuneResult R1 = tune(O);
  O.Threads = 4;
  TuneResult R4 = tune(O);

  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_TRUE(R4.Ok) << R4.Error;
  EXPECT_EQ(R1.Best.Eval.Score, R4.Best.Eval.Score);
  EXPECT_EQ(keyOf(R1.Best.Trace), keyOf(R4.Best.Trace));
  EXPECT_EQ(R1.Stats.Tried, R4.Stats.Tried);
  EXPECT_EQ(R1.Stats.Ok, R4.Stats.Ok);
}

TEST(Tuner, WinningTraceReplaysToTheReportedScore) {
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 6;
  O.Generations = 1;
  O.Beam = 3;
  O.Seed = 5;
  O.Threads = 2;
  TuneResult R = tune(O);
  ASSERT_TRUE(R.Ok) << R.Error;

  // Replay the applied trace from scratch, the way `exocc-tune --replay`
  // does: same algorithm, same cost model, same score.
  auto Space = buildSearchSpace(O.Kernel, O.Shape);
  ASSERT_TRUE(Space) << Space.error().str();
  LenientApplyResult A = applyTraceLenient(Space->Algorithm, R.Best.Applied);
  EXPECT_EQ(A.Rejected, 0u) << "an applied trace must re-apply in full";
  CostModel CM(O.Shape, O.Score);
  EvalResult E = CM.evaluate(A.Final);
  ASSERT_TRUE(E.Ok) << E.FailStage << ": " << E.Detail;
  EXPECT_EQ(E.Score, R.Best.Eval.Score);
  EXPECT_EQ(E.SimCycles, R.Best.Eval.SimCycles);
}

TEST(Tuner, TuneJsonParsesWithCounterKeyPaths) {
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  TuneResult R;
  R.Ok = true;
  R.Best.Applied = {*ScheduleStep::parse("split|k|16|ko|ki|perfect")};
  R.Best.Eval.Score = 2.0;
  R.HaveHandwritten = true;
  R.Handwritten.Score = 0; // no ratio is reported against a zero score
  R.Stats.Tried = 3;
  R.Stats.Cache.QueryCache.CrossJobHits = 4;
  R.Stats.Cache.EffectCache.CrossCompileHits = 5;
  R.Log.push_back({0, 2.0, 3, 1});

  auto J = support::Json::parse(tuneJson(O, R).dump());
  ASSERT_TRUE(J) << J.error().str();
  ASSERT_NE(J->get("query_cache"), nullptr);
  EXPECT_EQ(J->get("query_cache")->getInt("cross_job_hits"), 4);
  ASSERT_NE(J->get("effect_cache"), nullptr);
  EXPECT_EQ(J->get("effect_cache")->getInt("cross_compile_hits"), 5);
  EXPECT_NE(J->get("jit_cache"), nullptr);
  EXPECT_EQ(J->getInt("candidates_tried"), 3);
  EXPECT_EQ(J->get("best_vs_handwritten"), nullptr);
  ASSERT_NE(J->get("best_trace"), nullptr);
  ASSERT_EQ(J->get("best_trace")->items().size(), 1u);
  EXPECT_EQ(J->get("best_trace")->items()[0].asString(),
            "split|k|16|ko|ki|perfect");
  ASSERT_EQ(J->get("generation_log")->items().size(), 1u);
}

TEST(Tuner, UnknownKernelFailsCleanly) {
  TuneOptions O;
  O.Kernel = "no_such_kernel";
  TuneResult R = tune(O);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no_such_kernel"), std::string::npos);
}
