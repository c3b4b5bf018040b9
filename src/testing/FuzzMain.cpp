//===- testing/FuzzMain.cpp - exocc-fuzz CLI -------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzing driver (DESIGN.md, "Differential testing"):
///
///   exocc-fuzz                          # default smoke-sized run
///   exocc-fuzz --seed 7 --programs 200  # bigger, different seed
///   exocc-fuzz --schedules 5 --steps 8  # deeper schedules
///   exocc-fuzz --json BENCH_fuzz.json   # machine-readable stats
///   exocc-fuzz --repro-dir DIR          # write shrunk reproducers
///   exocc-fuzz --replay CASE.fuzz       # re-run one corpus/repro case
///   exocc-fuzz --emit-corpus DIR N      # pin N seed-corpus cases
///   exocc-fuzz --update-golden          # refresh tests/golden/*.c from
///                                       # the standard kernel suite
///   exocc-fuzz --inject-unsound         # TEST-ONLY broken rewrite, to
///                                       # prove the oracle catches it
///
/// Exit status: 0 when every case agreed, 1 on any divergence or
/// generator failure, 2 on usage or harness errors.
///
//===----------------------------------------------------------------------===//

#include "testing/Fuzzer.h"

#include "driver/KernelSuite.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace exo;
using namespace exo::testing;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

namespace {

int replayCase(const std::string &Path, const OracleOptions &O) {
  auto Case = readCorpusFile(Path);
  if (!Case) {
    std::fprintf(stderr, "replay: %s\n", Case.error().str().c_str());
    return 2;
  }
  auto OC = materializeCorpus(*Case);
  if (!OC) {
    std::fprintf(stderr, "replay: %s\n", OC.error().str().c_str());
    return 2;
  }
  auto Out = runOracle(*OC, O);
  if (!Out) {
    std::fprintf(stderr, "replay: %s\n", Out.error().str().c_str());
    return 2;
  }
  std::printf("%s: %s%s%s\n", Path.c_str(), oracleStatusName(Out->Status),
              Out->Detail.empty() ? "" : ": ", Out->Detail.c_str());
  return Out->ok() ? 0 : 1;
}

int emitCorpus(const std::string &Dir, unsigned Count, const FuzzOptions &FO) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  for (unsigned I = 0; I < Count; ++I) {
    uint64_t Seed = FO.Seed + I;
    // Alternate unscheduled and scheduled cases so the corpus pins both
    // the generator and the schedule driver.
    unsigned Variant = I % 2 ? 1 : 0;
    auto Case = makeCorpusCase(Seed, Variant, FO.Gen, FO.Sched);
    if (!Case) {
      std::fprintf(stderr, "emit-corpus seed %llu: %s\n",
                   (unsigned long long)Seed, Case.error().str().c_str());
      return 2;
    }
    char Name[64];
    std::snprintf(Name, sizeof(Name), "/case_%03u_seed%llu.fuzz", I,
                  (unsigned long long)Seed);
    auto W = writeCorpusFile(Dir + Name, *Case);
    if (!W) {
      std::fprintf(stderr, "emit-corpus: %s\n", W.error().str().c_str());
      return 2;
    }
  }
  std::printf("wrote %u corpus cases to %s\n", Count, Dir.c_str());
  return 0;
}

int updateGolden() {
  std::string Dir = EXO_SOURCE_DIR "/tests/golden";
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  driver::CompileSession Session;
  for (const driver::CompileJob &Job : driver::standardKernelSuite()) {
    driver::JobResult R = Session.run(Job);
    if (!R.Ok) {
      std::fprintf(stderr, "update-golden: %s failed: %s\n", R.Name.c_str(),
                   R.ErrorMessage.c_str());
      return 2;
    }
    std::string Path = Dir + "/" + R.Name + ".c";
    std::ofstream Out(Path);
    Out << R.Output;
    std::printf("wrote %s (%zu bytes)\n", Path.c_str(), R.Output.size());
  }
  return 0;
}

void printReport(const FuzzReport &R) {
  const FuzzStats &S = R.Stats;
  std::printf("fuzz: %u programs (%u gen failures), %u schedules, %u cases, "
              "%u oracle batches in %.1f ms\n",
              S.Programs, S.GenFailures, S.Schedules, S.Cases,
              S.OracleBatches, S.WallMillis);
  std::printf("      %u steps accepted of %u proposed (%.0f%%)\n",
              S.StepsAccepted, S.StepsProposed,
              S.StepsProposed ? 100.0 * S.StepsAccepted / S.StepsProposed
                              : 0.0);
  if (S.DifferentialSteps) {
    std::printf("      differential: %u steps, %u mismatches; snapshot "
                "%llu hits / %llu misses (%.0f%% hit rate), %llu probes "
                "skipped\n",
                S.DifferentialSteps, S.DifferentialMismatches,
                (unsigned long long)S.IncrementalHits,
                (unsigned long long)S.IncrementalMisses,
                S.IncrementalHits + S.IncrementalMisses
                    ? 100.0 * S.IncrementalHits /
                          (S.IncrementalHits + S.IncrementalMisses)
                    : 0.0,
                (unsigned long long)S.IncrementalProbesSkipped);
    for (const std::string &N : R.DifferentialNotes)
      std::printf("  MISMATCH %s\n", N.c_str());
  }
  if (S.CursorChecks) {
    std::printf("      cursors: %u forwarded, %u invalidated (valid fate), "
                "%u contract violations\n",
                S.CursorChecks, S.CursorInvalidated, S.CursorMismatches);
    for (const std::string &N : R.CursorNotes)
      std::printf("  CURSOR MISMATCH %s\n", N.c_str());
  }
  for (const auto &[Op, PA] : S.OpStats)
    std::printf("        %-16s %4u/%4u\n", Op.c_str(), PA.second, PA.first);
  if (!S.BackendBenches.empty()) {
    std::printf("      backends (lower+execute over %u cases, interp phase "
                "excluded):\n",
                S.BackendBenches.front().Cases);
    for (const FuzzStats::BackendBench &B : S.BackendBenches) {
      auto Cps = [&](double Ms) {
        return Ms > 0 ? B.Cases / (Ms / 1000.0) : 0.0;
      };
      std::printf("        %-8s cold %8.1f ms (%6.1f cases/s)   warm %8.1f "
                  "ms (%6.1f cases/s)\n",
                  B.Backend.c_str(), B.ColdExecMillis, Cps(B.ColdExecMillis),
                  B.WarmExecMillis, Cps(B.WarmExecMillis));
    }
    std::printf("      jit module cache: %llu compiles, %llu hits, %llu "
                "evictions; %u backend mismatches\n",
                (unsigned long long)S.Cache.JitCache.Compiles,
                (unsigned long long)S.Cache.JitCache.Hits,
                (unsigned long long)S.Cache.JitCache.Evictions,
                S.BackendMismatches);
  }
  for (const FuzzDivergence &D : R.Divergences) {
    std::printf("  DIVERGENCE seed %llu: %s: %s\n",
                (unsigned long long)D.ProgramSeed,
                oracleStatusName(D.Outcome.Status), D.Outcome.Detail.c_str());
    std::printf("    trace shrunk %u -> %zu step%s%s%s\n", D.FullTraceLen,
                D.Shrunk.Trace.size(), D.Shrunk.Trace.size() == 1 ? "" : "s",
                D.ReproBase.empty() ? "" : ", repro at ",
                D.ReproBase.c_str());
    for (const ScheduleStep &St : D.Shrunk.Trace)
      std::printf("      %s\n", St.str().c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions FO;
  std::string JsonPath, ReplayPath, CorpusDir;
  unsigned CorpusCount = 20;
  bool DoUpdateGolden = false;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--seed") {
      if (const char *V = Next())
        FO.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--programs") {
      if (const char *V = Next())
        FO.NumPrograms = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--schedules") {
      if (const char *V = Next())
        FO.SchedulesPerProgram = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--steps") {
      if (const char *V = Next())
        FO.Sched.MaxSteps = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--attempts") {
      if (const char *V = Next())
        FO.Sched.MaxAttempts = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--batch") {
      if (const char *V = Next())
        FO.OracleBatch = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--json") {
      if (const char *V = Next())
        JsonPath = V;
    } else if (A == "--repro-dir") {
      if (const char *V = Next())
        FO.ReproDir = V;
    } else if (A == "--replay") {
      if (const char *V = Next())
        ReplayPath = V;
    } else if (A == "--emit-corpus") {
      if (const char *V = Next())
        CorpusDir = V;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        CorpusCount = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--update-golden") {
      DoUpdateGolden = true;
    } else if (A == "--inject-unsound") {
      FO.Sched.InjectUnsound = true;
    } else if (A == "--differential") {
      FO.Sched.Differential = true;
    } else if (A == "--cursors") {
      FO.Sched.CheckCursors = true;
    } else if (A == "--cursors-per-step") {
      if (const char *V = Next())
        FO.Sched.CursorsPerStep = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--keep-files") {
      FO.Oracle.KeepFiles = true;
    } else if (A == "--backend") {
      if (const char *V = Next())
        FO.Oracle.Backend = V;
    } else if (A.rfind("--backend=", 0) == 0) {
      FO.Oracle.Backend = A.substr(std::strlen("--backend="));
    } else if (A == "--compare-backends") {
      FO.CompareBackends = true;
    } else if (A == "--tolerance") {
      if (const char *V = Next())
        FO.Oracle.Tolerance = std::strtod(V, nullptr);
    } else if (A == "--help" || A == "-h") {
      std::printf(
          "usage: exocc-fuzz [--seed N] [--programs N] [--schedules N]\n"
          "                  [--steps N] [--attempts N] [--batch N]\n"
          "                  [--json PATH] [--repro-dir DIR]\n"
          "                  [--replay CASE.fuzz] [--emit-corpus DIR [N]]\n"
          "                  [--update-golden] [--inject-unsound]\n"
          "                  [--differential] [--keep-files]\n"
          "                  [--cursors]               (cursor-forwarding "
          "property check per accepted step)\n"
          "                  [--cursors-per-step N]    (cursors planted per "
          "step; default 8)\n"
          "                  [--backend csource|jit]   (oracle backend; "
          "default jit)\n"
          "                  [--compare-backends]      (re-run cases per "
          "backend, cross-check + time)\n"
          "                  [--tolerance X]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", A.c_str());
      return 2;
    }
  }

  if (!ReplayPath.empty())
    return replayCase(ReplayPath, FO.Oracle);
  if (!CorpusDir.empty())
    return emitCorpus(CorpusDir, CorpusCount, FO);
  if (DoUpdateGolden)
    return updateGolden();

  auto R = runFuzz(FO);
  if (!R) {
    std::fprintf(stderr, "fuzz: %s\n", R.error().str().c_str());
    return 2;
  }
  printReport(*R);
  if (!JsonPath.empty())
    std::ofstream(JsonPath) << statsJson(*R, FO).dump() << "\n";
  if (FO.CompareBackends) {
    // CI tripwire: the warm in-process JIT must beat the spawn-per-call
    // csource backend by at least 2x on lower+execute throughput.
    double CsWarm = 0, JitWarm = 0;
    for (const auto &B : R->Stats.BackendBenches) {
      double Cps =
          B.WarmExecMillis > 0 ? B.Cases / (B.WarmExecMillis / 1000.0) : 0.0;
      if (B.Backend == "csource")
        CsWarm = Cps;
      else if (B.Backend == "jit")
        JitWarm = Cps;
    }
    if (CsWarm > 0 && JitWarm < 2.0 * CsWarm) {
      std::fprintf(stderr,
                   "fuzz: jit warm throughput %.1f cases/s is below 2x "
                   "csource (%.1f cases/s) -- backend perf regression\n",
                   JitWarm, CsWarm);
      return 1;
    }
  }
  return R->clean() ? 0 : 1;
}
