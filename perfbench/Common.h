//===- perfbench/Common.h - Shared benchmark plumbing ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the command
/// line, the seeded input generator, order statistics, the process-wide
/// cache reset a cold compile pays, and the Report that becomes the one
/// JSON line the benchmark prints.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_PERFBENCH_COMMON_H
#define EXO_PERFBENCH_COMMON_H

#include "analysis/EffectCache.h"
#include "smt/QueryCache.h"
#include "smt/Solver.h"
#include "smt/Term.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile; ///< Chrome trace output (traced runs only)
  /// This run's scratch directory; also $TMPDIR while it runs, so the JIT's
  /// module directories land inside it and go with it at exit.
  std::string WorkDir;
};

/// How many times each workload repeats its set-up; setup_s is the median.
constexpr int SetupRepeats = 3;

/// splitmix64: the one source of every seeded input.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);

private:
  uint64_t State;
};

double nowMs();

/// Linear-interpolated percentile (P in [0, 100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// Peak resident set of this process, or of it and the largest child it
/// has waited for.
double peakRssMb(bool WithChildren = false);

/// Makes the next compile cold: drops the term interner, the solver query
/// cache and the effect cache, then returns freed heap to the system so
/// it starts from the same allocator state each time (a bulk free leaves
/// glibc free lists that slow the next compile otherwise).
void clearCompilerCaches();

/// The process-wide compiler counters a workload reports per operation:
/// solver, query cache, term interner and effect cache.
struct CompilerCounters {
  exo::smt::Solver::Stats Solver;
  exo::smt::QueryCacheStats Query;
  exo::smt::TermInternerStats Terms;
  exo::analysis::EffectCacheStats Effects;

  static CompilerCounters now();
  /// The counts accumulated since \p Before.
  CompilerCounters since(const CompilerCounters &Before) const;
};

double ratio(uint64_t Num, uint64_t Den);

/// The metrics, counts and run facts of one benchmark run.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  void info(const std::string &Key, const std::string &Value);
  void info(const std::string &Key, double Value);

  /// Counts one checked operation; a false \p Ok is a failure, and
  /// \p Why goes to stderr.
  void check(bool Ok, const std::string &Why);
  bool correct() const { return Failed == 0 && Attempted > 0; }

  /// Prints the info line and then the result line on stdout.
  void print() const;

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::map<std::string, std::string> Info;
};

/// Records the smt.* and analysis.effect_cache.* per-layer metrics of
/// \p C, each ratio with its base.
void reportCompilerCounters(Report &R, const CompilerCounters &C);

/// Runs \p Setup SetupRepeats times and reports setup_s as the median.
template <typename Fn> void timeSetup(Report &R, Fn Setup) {
  std::vector<double> Secs;
  for (int I = 0; I < SetupRepeats; ++I) {
    double T0 = nowMs();
    Setup();
    Secs.push_back((nowMs() - T0) / 1000.0);
  }
  R.metric("setup_s", percentile(Secs, 50), "s");
}

void runCompileCold(const Options &O, Report &R);
void runKernelExec(const Options &O, Report &R, bool OutOfCache);

} // namespace perfbench

#endif // EXO_PERFBENCH_COMMON_H
