//===- smt/Solver.h - Validity / satisfiability interface ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver facade used by the effect analysis, the bounds checker, and
/// the unification engine. Queries are quantified LIA formulas; answers are
/// three-valued so every client can fail safe on Unknown (the paper's
/// approach: an imprecise analysis may only reject, never admit, a rewrite).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_SOLVER_H
#define EXO_SMT_SOLVER_H

#include "smt/Term.h"
#include "support/Json.h"

#include <cstdint>

namespace exo {
namespace smt {

enum class SolverResult { Yes, No, Unknown };

/// Process-wide default literal budget (overridable for ablations). A
/// thread-scoped override (ScopedSolverDefaults) takes precedence on the
/// thread that installed it.
uint64_t defaultMaxLiterals();
void setDefaultMaxLiterals(uint64_t Budget);

/// Default for SolverOptions::UseQueryCache; true unless a thread-scoped
/// override says otherwise.
bool defaultUseQueryCache();

/// RAII override of the solver defaults for the current thread only.
/// Compile sessions install one so solvers constructed anywhere in the
/// scheduling pipeline pick up the session's budget, while sessions on
/// other threads keep their own. Nests; the destructor restores the
/// previous scope.
class ScopedSolverDefaults {
public:
  ScopedSolverDefaults(uint64_t MaxLiterals, bool UseQueryCache);
  ~ScopedSolverDefaults();
  ScopedSolverDefaults(const ScopedSolverDefaults &) = delete;
  ScopedSolverDefaults &operator=(const ScopedSolverDefaults &) = delete;

private:
  bool PrevActive;
  uint64_t PrevBudget;
  bool PrevUseCache;
};

/// Tuning knobs. MaxLiterals bounds the total number of literals the
/// elimination pipeline may create for a single query. UseQueryCache lets a
/// single solver opt out of the process-wide memo table (see QueryCache.h);
/// the table also has a global enable switch.
struct SolverOptions {
  uint64_t MaxLiterals = defaultMaxLiterals();
  bool UseQueryCache = defaultUseQueryCache();
};

/// Decision procedure for quantified linear integer arithmetic.
///
/// Free integer variables are implicitly universally quantified by
/// checkValid and existentially by checkSat. Free *boolean* variables are
/// closed the same way over the range {0, 1}.
class Solver {
public:
  explicit Solver(SolverOptions Opts = SolverOptions()) : Opts(Opts) {}

  /// Is \p F true under every assignment of its free variables?
  SolverResult checkValid(const TermRef &F);

  /// Is \p F true under some assignment of its free variables?
  SolverResult checkSat(const TermRef &F);

  /// Query statistics, for the ablation benchmarks. NumUnknown is the sum
  /// of its three breakdown counters: NumUnknownBudget (ran out of the
  /// literal budget — retrying with a larger budget may succeed),
  /// NumUnknownStructural (Cooper's structural caps fired: coefficient LCM
  /// or bound-set overflow — genuine non-quasi-affine fallout that no
  /// budget will fix), and NumUnknownTimeout (the thread's deadline passed
  /// mid-query; see support/Deadline.h — neither budget nor structure is
  /// implicated, the query was cancelled). Cache counters track the
  /// process-wide query cache.
  /// Preprocessing counters (DESIGN.md, "Solver preprocessing"): each
  /// enabled pipeline stage counts a hit when it changed the query and a
  /// miss when it left it alone; SimplifyDecided counts queries reduced
  /// to a constant before prenex (no literal budget consumed at all).
  /// NumLiterals is the total Cooper literal consumption — the currency
  /// of the bench tripwire. FastPathHits/Misses track the effect-analysis
  /// disjointness pre-check, which answers without building a query
  /// (hits are NOT included in NumQueries).
  struct Stats {
    uint64_t NumQueries = 0;
    uint64_t NumUnknown = 0;
    uint64_t NumUnknownBudget = 0;
    uint64_t NumUnknownStructural = 0;
    uint64_t NumUnknownTimeout = 0;
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    uint64_t NumLiterals = 0;
    uint64_t SimplifyConstFoldHits = 0;
    uint64_t SimplifyConstFoldMisses = 0;
    uint64_t SimplifyEqSubstHits = 0;
    uint64_t SimplifyEqSubstMisses = 0;
    uint64_t SimplifyIntervalHits = 0;
    uint64_t SimplifyIntervalMisses = 0;
    uint64_t SimplifyDecided = 0;
    uint64_t CooperReorders = 0;
    uint64_t CooperEarlyExits = 0;
    uint64_t FastPathHits = 0;
    uint64_t FastPathMisses = 0;

    /// The counts accumulated since \p Before.
    Stats since(const Stats &Before) const;
    support::Json toJson() const;
  };
  const Stats &stats() const { return TheStats; }

private:
  SolverResult decide(TermRef Closed);

  SolverOptions Opts;
  Stats TheStats;
};

/// Process-wide aggregate of every Solver instance's Stats. Benchmarks use
/// this to observe solvers created deep inside the scheduling pipeline.
Solver::Stats solverGlobalStats();

/// Per-thread aggregate of the same counters. A batch job runs entirely
/// on one worker thread, so CompileSession snapshots this before and
/// after a job to attribute query counts to it exactly, without racing
/// against jobs on other threads.
Solver::Stats solverThreadStats();

/// Records an effect-analysis disjointness fast-path outcome (see
/// analysis/Checks.cpp) into the global and per-thread stats. Lives here
/// so the fast path shares the solver's stats plumbing.
void noteEffectFastPath(bool Hit);

/// The most recent query on this thread that came back Unknown for
/// *budget* reasons, kept so retry policies can re-prove just that query
/// under an escalated budget instead of re-running a whole job
/// (CompileSession::attemptJob). Cleared explicitly by the retry loop.
TermRef lastBudgetUnknownQuery();
void clearLastBudgetUnknownQuery();

} // namespace smt
} // namespace exo

#endif // EXO_SMT_SOLVER_H
