//===- perfbench/main.cpp - The repository benchmark driver ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   exo_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--trace-file PATH]
///
/// Runs one workload (compile_cold, kernel_incache or kernel_outcache) for
/// S seconds and prints, as its last two stdout lines, an "info {...}" line
/// of run facts and the result object {"correct", "attempted", "failed",
/// "metrics"}. The metrics are the end-to-end ones, plus with --trace 1 the
/// per-layer ones, whose spans then go to PATH as Chrome trace-event JSON.
/// Everything the run writes goes to one fresh directory under $TMPDIR,
/// removed at exit. Exits 1 when any output was wrong, 2 on bad usage.
/// perfbench/run.py builds this binary, selects the metrics and is the
/// benchmark's entry point.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "support/TempDir.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "exo_perfbench: %s\nusage: exo_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--trace-file")
      O.TraceFile = V;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (O.Seconds <= 0)
    return usage("--seconds must be positive");

  exo::support::TempDir RunDir("perfbench_");
  if (!RunDir.valid())
    return usage(("cannot create a directory under " +
                  exo::support::TempDir::tempRoot())
                     .c_str());
  O.WorkDir = RunDir.path();
  setenv("TMPDIR", O.WorkDir.c_str(), 1);

  enableTracing(O.Trace);
  Report R;
  R.info("workload", O.Workload);
  R.info("seed", static_cast<double>(O.Seed));
  R.info("seconds", O.Seconds);
  R.info("trace", O.Trace ? 1.0 : 0.0);

  if (O.Workload == "compile_cold")
    runCompileCold(O, R);
  else if (O.Workload == "kernel_incache")
    runKernelExec(O, R, /*OutOfCache=*/false);
  else if (O.Workload == "kernel_outcache")
    runKernelExec(O, R, /*OutOfCache=*/true);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  if (O.Trace && !O.TraceFile.empty() && !writeChromeTrace(O.TraceFile))
    R.check(false, "cannot write the trace to " + O.TraceFile);
  R.print();
  return R.correct() ? 0 : 1;
}
