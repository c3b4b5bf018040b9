//===- bench/ablation_simplify.cpp - Preprocessing ablation ------*- C++-*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the solver preprocessing pipeline (DESIGN.md, "Solver
/// preprocessing"): the six-kernel suite is compiled serially with each
/// stage toggled in isolation, with everything off, and with everything
/// on. Each row runs with cleared caches and the query cache disabled so
/// the per-row Cooper literal consumption is the true per-stage cost.
///
/// The binary doubles as a regression tripwire (exit 1):
///  - the all-on row must answer at least 30% of safety queries by the
///    effect fast path or during preprocessing (the PR's acceptance
///    floor), and
///  - the all-on row's Cooper literal consumption must not exceed the
///    recorded baseline by more than 10% (a silent simplifier regression
///    would show up here first).
///
/// Results are written as JSON to argv[1] (default BENCH_simplify.json).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "analysis/EffectCache.h"
#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"
#include "smt/QueryCache.h"
#include "smt/Simplify.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace exo;
using namespace exo::bench;
using namespace exo::driver;

namespace {

/// All-on Cooper literal consumption on the standard kernel suite,
/// re-recorded when the AMX tile-engine matmul joined it (the previous
/// six-kernel baseline was 17,564; amx_matmul's staging/replace queries
/// account for the rest — all-off consumes 2,268,281, a 64.6x
/// reduction). The tripwire allows 10% drift.
constexpr uint64_t BaselineAllOnLiterals = 35'128;

struct Row {
  const char *Name;
  smt::SimplifyConfig Cfg;
  smt::Solver::Stats S;
  double Ms = 0;
  bool AllOk = false;
};

smt::SimplifyConfig onlyStage(unsigned I) {
  smt::SimplifyConfig C;
  C.ConstFold = I == 0;
  C.EqSubst = I == 1;
  C.IntervalProp = I == 2;
  C.CheapVarOrder = I == 3;
  C.EffectFastPath = I == 4;
  return C;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_simplify.json";
  std::printf("Ablation: solver preprocessing stages on the six-kernel "
              "suite (serial, query cache off)\n\n");

  smt::SimplifyConfig AllOff;
  AllOff.ConstFold = AllOff.EqSubst = AllOff.IntervalProp = false;
  AllOff.CheapVarOrder = AllOff.EffectFastPath = false;
  smt::SimplifyConfig AllOn; // defaults: everything on

  std::vector<Row> Rows = {
      {"all-off", AllOff, {}, 0, false},
      {"const-fold", onlyStage(0), {}, 0, false},
      {"eq-subst", onlyStage(1), {}, 0, false},
      {"interval", onlyStage(2), {}, 0, false},
      {"cheap-var", onlyStage(3), {}, 0, false},
      {"fast-path", onlyStage(4), {}, 0, false},
      {"all-on", AllOn, {}, 0, false},
  };

  SessionOptions Opts;
  Opts.UseQueryCache = false; // every query must exercise the pipeline

  printRow({"config", "ok", "time (ms)", "queries", "decided", "fp hit",
            "fp miss", "literals", "unknown"},
           {11, 4, 10, 9, 9, 8, 8, 12, 9});
  for (Row &R : Rows) {
    smt::setSimplifyConfig(R.Cfg);
    smt::clearSolverQueryCache();
    analysis::clearEffectCache();
    BatchResult B = BatchDriver(1, Opts).run(standardKernelSuite());
    R.Ms = B.WallMillis;
    R.AllOk = B.AllOk;
    R.S = B.Cache.Solver;
    char T[32], Q[32], D[32], FH[32], FM[32], L[32], U[32];
    std::snprintf(T, 32, "%.1f", R.Ms);
    std::snprintf(Q, 32, "%llu", (unsigned long long)R.S.NumQueries);
    std::snprintf(D, 32, "%llu", (unsigned long long)R.S.SimplifyDecided);
    std::snprintf(FH, 32, "%llu", (unsigned long long)R.S.FastPathHits);
    std::snprintf(FM, 32, "%llu", (unsigned long long)R.S.FastPathMisses);
    std::snprintf(L, 32, "%llu", (unsigned long long)R.S.NumLiterals);
    std::snprintf(U, 32, "%llu", (unsigned long long)R.S.NumUnknown);
    printRow({R.Name, R.AllOk ? "ok" : "FAIL", T, Q, D, FH, FM, L, U},
             {11, 4, 10, 9, 9, 8, 8, 12, 9});
  }
  smt::setSimplifyConfig(smt::SimplifyConfig());

  const Row &On = Rows.back();
  const Row &Off = Rows.front();
  uint64_t Answered = On.S.SimplifyDecided + On.S.FastPathHits;
  uint64_t Posed = On.S.NumQueries + On.S.FastPathHits;
  double Ratio = Posed ? (double)Answered / (double)Posed : 0;
  // The all-off row's "decided" count is the number of queries that were
  // ground on arrival (the term factories fold ground atoms at
  // construction); those return early regardless of any stage. The
  // pipeline's own contribution is everything beyond that.
  uint64_t GroundAtArrival = Off.S.SimplifyDecided;
  std::printf("\nall-on: %llu of %llu safety queries (%.1f%%) answered by "
              "the fast path or decided during preprocessing\n(%llu were "
              "ground on arrival; the pipeline decided %llu of the %llu "
              "that were not);\nCooper literals %llu (all-off: %llu, "
              "%.1fx reduction)\n",
              (unsigned long long)Answered, (unsigned long long)Posed,
              100.0 * Ratio, (unsigned long long)GroundAtArrival,
              (unsigned long long)(On.S.SimplifyDecided - GroundAtArrival),
              (unsigned long long)(On.S.NumQueries - GroundAtArrival),
              (unsigned long long)On.S.NumLiterals,
              (unsigned long long)Off.S.NumLiterals,
              On.S.NumLiterals
                  ? (double)Off.S.NumLiterals / (double)On.S.NumLiterals
                  : 0.0);

  support::Json RowsJson = support::Json::array();
  for (const Row &R : Rows)
    RowsJson.push(support::Json::object()
                      .set("config", R.Name)
                      .set("ok", R.AllOk)
                      .set("ms", R.Ms)
                      .merge(R.S.toJson()));
  support::Json Out =
      support::Json::object()
          .set("rows", std::move(RowsJson))
          .set("metric", support::Json::object()
                             .set("answered_before_cooper", Answered)
                             .set("posed", Posed)
                             .set("ratio", Ratio)
                             .set("ground_at_arrival", GroundAtArrival))
          .set("tripwire",
               support::Json::object()
                   .set("baseline_all_on_literals", BaselineAllOnLiterals)
                   .set("all_on_literals", On.S.NumLiterals));
  std::ofstream(OutPath) << Out.dump() << "\n";
  std::printf("wrote %s\n", OutPath.c_str());

  int Failures = 0;
  for (const Row &R : Rows)
    if (!R.AllOk) {
      std::printf("TRIPWIRE: suite failed under config '%s'\n", R.Name);
      ++Failures;
    }
  if (Ratio < 0.30) {
    std::printf("TRIPWIRE: preprocessing answered only %.1f%% of queries "
                "(floor: 30%%)\n",
                100.0 * Ratio);
    ++Failures;
  }
  if (On.S.NumLiterals > BaselineAllOnLiterals + BaselineAllOnLiterals / 10) {
    std::printf("TRIPWIRE: all-on Cooper literal consumption %llu exceeds "
                "baseline %llu by more than 10%%\n",
                (unsigned long long)On.S.NumLiterals,
                (unsigned long long)BaselineAllOnLiterals);
    ++Failures;
  }
  return Failures ? 1 : 0;
}
