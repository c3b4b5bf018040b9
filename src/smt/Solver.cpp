//===- smt/Solver.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "smt/Cooper.h"
#include "smt/Prenex.h"
#include "smt/QueryCache.h"
#include "smt/Simplify.h"

#include "support/Deadline.h"
#include "support/FaultInjector.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace exo;
using namespace exo::smt;

namespace {
std::atomic<uint64_t> &defaultBudgetStorage() {
  static std::atomic<uint64_t> Budget{2'000'000};
  return Budget;
}

/// Thread-scoped default overrides (see ScopedSolverDefaults).
struct ThreadDefaults {
  bool Active = false;
  uint64_t Budget = 0;
  bool UseCache = true;
};
thread_local ThreadDefaults TLDefaults;

/// Process-wide aggregate as lock-free atomics: every solver on every
/// session thread bumps these on the query hot path, so a mutex here would
/// both serialize the batch driver and (worse) undercount if skipped.
/// Snapshot reads are per-counter relaxed loads — counters are mutually
/// consistent only at quiescence, which is when benchmarks read them.
struct GlobalStats {
  std::atomic<uint64_t> NumQueries{0};
  std::atomic<uint64_t> NumUnknown{0};
  std::atomic<uint64_t> NumUnknownBudget{0};
  std::atomic<uint64_t> NumUnknownStructural{0};
  std::atomic<uint64_t> NumUnknownTimeout{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> NumLiterals{0};
  std::atomic<uint64_t> SimplifyConstFoldHits{0};
  std::atomic<uint64_t> SimplifyConstFoldMisses{0};
  std::atomic<uint64_t> SimplifyEqSubstHits{0};
  std::atomic<uint64_t> SimplifyEqSubstMisses{0};
  std::atomic<uint64_t> SimplifyIntervalHits{0};
  std::atomic<uint64_t> SimplifyIntervalMisses{0};
  std::atomic<uint64_t> SimplifyDecided{0};
  std::atomic<uint64_t> CooperReorders{0};
  std::atomic<uint64_t> CooperEarlyExits{0};
  std::atomic<uint64_t> FastPathHits{0};
  std::atomic<uint64_t> FastPathMisses{0};

  static GlobalStats &get() {
    static GlobalStats G;
    return G;
  }
};

/// Per-thread mirror of the counters (see solverThreadStats()).
thread_local Solver::Stats TLStats;

/// The last budget-Unknown query observed on this thread (see
/// lastBudgetUnknownQuery()).
thread_local TermRef TLLastBudgetUnknown;
} // namespace

namespace {
/// Applies \p Fn to every (snapshot-field, atomic-counter) pair so the
/// snapshot function cannot drift out of sync with the counter
/// list as stats grow.
template <typename FnT> void forEachCounter(GlobalStats &G, FnT Fn) {
  Fn(&Solver::Stats::NumQueries, G.NumQueries);
  Fn(&Solver::Stats::NumUnknown, G.NumUnknown);
  Fn(&Solver::Stats::NumUnknownBudget, G.NumUnknownBudget);
  Fn(&Solver::Stats::NumUnknownStructural, G.NumUnknownStructural);
  Fn(&Solver::Stats::NumUnknownTimeout, G.NumUnknownTimeout);
  Fn(&Solver::Stats::CacheHits, G.CacheHits);
  Fn(&Solver::Stats::CacheMisses, G.CacheMisses);
  Fn(&Solver::Stats::NumLiterals, G.NumLiterals);
  Fn(&Solver::Stats::SimplifyConstFoldHits, G.SimplifyConstFoldHits);
  Fn(&Solver::Stats::SimplifyConstFoldMisses, G.SimplifyConstFoldMisses);
  Fn(&Solver::Stats::SimplifyEqSubstHits, G.SimplifyEqSubstHits);
  Fn(&Solver::Stats::SimplifyEqSubstMisses, G.SimplifyEqSubstMisses);
  Fn(&Solver::Stats::SimplifyIntervalHits, G.SimplifyIntervalHits);
  Fn(&Solver::Stats::SimplifyIntervalMisses, G.SimplifyIntervalMisses);
  Fn(&Solver::Stats::SimplifyDecided, G.SimplifyDecided);
  Fn(&Solver::Stats::CooperReorders, G.CooperReorders);
  Fn(&Solver::Stats::CooperEarlyExits, G.CooperEarlyExits);
  Fn(&Solver::Stats::FastPathHits, G.FastPathHits);
  Fn(&Solver::Stats::FastPathMisses, G.FastPathMisses);
}
} // namespace

Solver::Stats exo::smt::solverGlobalStats() {
  GlobalStats &G = GlobalStats::get();
  Solver::Stats S;
  forEachCounter(G, [&S](uint64_t Solver::Stats::*M,
                         std::atomic<uint64_t> &C) {
    S.*M = C.load(std::memory_order_relaxed);
  });
  return S;
}

Solver::Stats exo::smt::solverThreadStats() { return TLStats; }

static const support::CounterField<Solver::Stats> SolverStatFields[] = {
    {"queries", &Solver::Stats::NumQueries},
    {"unknown", &Solver::Stats::NumUnknown},
    {"unknown_budget", &Solver::Stats::NumUnknownBudget},
    {"unknown_structural", &Solver::Stats::NumUnknownStructural},
    {"unknown_timeout", &Solver::Stats::NumUnknownTimeout},
    {"cache_hits", &Solver::Stats::CacheHits},
    {"cache_misses", &Solver::Stats::CacheMisses},
    {"cooper_literals", &Solver::Stats::NumLiterals},
    {"cooper_reorders", &Solver::Stats::CooperReorders},
    {"cooper_early_exits", &Solver::Stats::CooperEarlyExits},
    {"simplify_decided", &Solver::Stats::SimplifyDecided},
    {"simplify_const_fold_hits", &Solver::Stats::SimplifyConstFoldHits},
    {"simplify_const_fold_misses", &Solver::Stats::SimplifyConstFoldMisses},
    {"simplify_eq_subst_hits", &Solver::Stats::SimplifyEqSubstHits},
    {"simplify_eq_subst_misses", &Solver::Stats::SimplifyEqSubstMisses},
    {"simplify_interval_hits", &Solver::Stats::SimplifyIntervalHits},
    {"simplify_interval_misses", &Solver::Stats::SimplifyIntervalMisses},
    {"fastpath_hits", &Solver::Stats::FastPathHits},
    {"fastpath_misses", &Solver::Stats::FastPathMisses},
};

Solver::Stats Solver::Stats::since(const Stats &Before) const {
  return support::countersSince(*this, Before, SolverStatFields);
}

support::Json Solver::Stats::toJson() const {
  return support::countersJson(*this, SolverStatFields);
}

void exo::smt::noteEffectFastPath(bool Hit) {
  GlobalStats &G = GlobalStats::get();
  if (Hit) {
    ++TLStats.FastPathHits;
    G.FastPathHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++TLStats.FastPathMisses;
    G.FastPathMisses.fetch_add(1, std::memory_order_relaxed);
  }
}

TermRef exo::smt::lastBudgetUnknownQuery() { return TLLastBudgetUnknown; }

void exo::smt::clearLastBudgetUnknownQuery() {
  TLLastBudgetUnknown = nullptr;
}

uint64_t exo::smt::defaultMaxLiterals() {
  if (TLDefaults.Active)
    return TLDefaults.Budget;
  return defaultBudgetStorage().load(std::memory_order_relaxed);
}

void exo::smt::setDefaultMaxLiterals(uint64_t Budget) {
  defaultBudgetStorage().store(Budget == 0 ? 1 : Budget,
                               std::memory_order_relaxed);
}

bool exo::smt::defaultUseQueryCache() {
  return TLDefaults.Active ? TLDefaults.UseCache : true;
}

ScopedSolverDefaults::ScopedSolverDefaults(uint64_t MaxLiterals,
                                           bool UseQueryCache)
    : PrevActive(TLDefaults.Active), PrevBudget(TLDefaults.Budget),
      PrevUseCache(TLDefaults.UseCache) {
  TLDefaults.Active = true;
  TLDefaults.Budget = MaxLiterals == 0 ? 1 : MaxLiterals;
  TLDefaults.UseCache = UseQueryCache;
}

ScopedSolverDefaults::~ScopedSolverDefaults() {
  TLDefaults.Active = PrevActive;
  TLDefaults.Budget = PrevBudget;
  TLDefaults.UseCache = PrevUseCache;
}

/// Closes the free variables of \p F with the given quantifier; boolean
/// variables are restricted to {0, 1}.
static TermRef closeFreeVars(TermRef F, bool Universally) {
  std::vector<TermVar> Free;
  collectFreeVars(F, Free);
  for (auto It = Free.rbegin(); It != Free.rend(); ++It) {
    TermVar V = *It;
    if (V.VarSort == Sort::Bool) {
      // Reinterpret the variable as an integer (the prenexer maps bool
      // vars onto int vars with the same Id) and bound it to {0, 1}.
      TermVar IntV{V.Id, V.Name, Sort::Int};
      TermRef X = mkVar(IntV);
      TermRef Range = mkAnd(le(intConst(0), X), le(X, intConst(1)));
      F = Universally ? forall(IntV, implies(Range, F))
                      : exists(IntV, mkAnd(Range, F));
    } else {
      F = Universally ? forall(V, F) : exists(V, F);
    }
  }
  return F;
}

SolverResult Solver::decide(TermRef Closed) {
  GlobalStats &G = GlobalStats::get();
  // Every counter bump lands in three places: this instance, the
  // process-wide aggregate, and the per-thread mirror.
  auto Bump = [&](uint64_t Solver::Stats::*M, std::atomic<uint64_t> &Counter,
                  uint64_t N = 1) {
    TheStats.*M += N;
    TLStats.*M += N;
    Counter.fetch_add(N, std::memory_order_relaxed);
  };
  Bump(&Stats::NumQueries, G.NumQueries);

  // Fault-injection sites, ahead of the cache so an injected fault can
  // never be masked by a hit. An injected timeout models a wedged query:
  // it cooperatively burns the thread's deadline (bounded when there is
  // none) before reporting Unknown{timeout}; an injected budget-Unknown
  // returns immediately with the budget verdict so retry policies can be
  // exercised deterministically.
  support::FaultInjector &Inj = support::FaultInjector::instance();
  if (Inj.enabled()) {
    if (Inj.shouldFire(support::Fault::SolverTimeout)) {
      auto SpinStart = std::chrono::steady_clock::now();
      while (!support::threadDeadlineExpired()) {
        // Without a deadline, stay "wedged" only briefly — injection must
        // never turn into the very hang it exists to test for.
        if (!support::currentThreadDeadline().isFinite() &&
            std::chrono::steady_clock::now() - SpinStart >
                std::chrono::milliseconds(25))
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Bump(&Stats::NumUnknown, G.NumUnknown);
      Bump(&Stats::NumUnknownTimeout, G.NumUnknownTimeout);
      return SolverResult::Unknown;
    }
    if (Inj.shouldFire(support::Fault::SolverBudgetUnknown)) {
      Bump(&Stats::NumUnknown, G.NumUnknown);
      Bump(&Stats::NumUnknownBudget, G.NumUnknownBudget);
      TLLastBudgetUnknown = Closed;
      return SolverResult::Unknown;
    }
  }

  // Preprocessing pipeline, ahead of the cache: a query decided here
  // costs no key computation and no budget, and the cache key below is
  // computed on the *simplified* term so more alpha-variants collide.
  SimplifyConfig Cfg = simplifyConfig();
  SimplifyOutcome SO = simplifyQuery(Closed);
  if (Cfg.ConstFold)
    Bump(SO.ConstFoldHit ? &Stats::SimplifyConstFoldHits
                         : &Stats::SimplifyConstFoldMisses,
         SO.ConstFoldHit ? G.SimplifyConstFoldHits
                         : G.SimplifyConstFoldMisses);
  if (Cfg.EqSubst)
    Bump(SO.EqSubstHit ? &Stats::SimplifyEqSubstHits
                       : &Stats::SimplifyEqSubstMisses,
         SO.EqSubstHit ? G.SimplifyEqSubstHits : G.SimplifyEqSubstMisses);
  if (Cfg.IntervalProp)
    Bump(SO.IntervalHit ? &Stats::SimplifyIntervalHits
                        : &Stats::SimplifyIntervalMisses,
         SO.IntervalHit ? G.SimplifyIntervalHits
                        : G.SimplifyIntervalMisses);
  if (SO.decided()) {
    Bump(&Stats::SimplifyDecided, G.SimplifyDecided);
    return SO.Simplified->boolValue() ? SolverResult::Yes : SolverResult::No;
  }
  TermRef Query = SO.Simplified;

  // Consult the process-wide memo table. A hit returns exactly what the
  // cold decision procedure returned for an alpha-equivalent query;
  // Unknown verdicts are never stored, so budget changes always re-solve.
  bool UseCache = Opts.UseQueryCache && queryCacheEnabled();
  std::string Key;
  if (UseCache) {
    Key = canonicalQueryKey(Query);
    SolverResult Cached;
    if (queryCacheLookup(Key, Cached)) {
      Bump(&Stats::CacheHits, G.CacheHits);
      return Cached;
    }
    Bump(&Stats::CacheMisses, G.CacheMisses);
  }

  Budget B(Opts.MaxLiterals);
  PrenexResult P = prenex(Query, B);
  Decision D = B.exceeded() ? Decision::Unknown : decideClosed(P, B);
  if (B.spent())
    Bump(&Stats::NumLiterals, G.NumLiterals, B.spent());
  if (B.reorders())
    Bump(&Stats::CooperReorders, G.CooperReorders, B.reorders());
  if (B.earlyExits())
    Bump(&Stats::CooperEarlyExits, G.CooperEarlyExits, B.earlyExits());
  switch (D) {
  case Decision::True:
  case Decision::False: {
    SolverResult R =
        D == Decision::True ? SolverResult::Yes : SolverResult::No;
    if (UseCache && !Key.empty())
      queryCacheInsert(Key, R);
    return R;
  }
  case Decision::Unknown:
    break;
  }
  Bump(&Stats::NumUnknown, G.NumUnknown);
  if (B.timedOut()) {
    Bump(&Stats::NumUnknownTimeout, G.NumUnknownTimeout);
  } else if (B.structuralOverflow()) {
    Bump(&Stats::NumUnknownStructural, G.NumUnknownStructural);
  } else {
    Bump(&Stats::NumUnknownBudget, G.NumUnknownBudget);
    // Remember the (pre-simplification) query so a retry policy can
    // re-prove just this one under an escalated budget.
    TLLastBudgetUnknown = Closed;
  }
  return SolverResult::Unknown;
}

SolverResult Solver::checkValid(const TermRef &F) {
  return decide(closeFreeVars(F, /*Universally=*/true));
}

SolverResult Solver::checkSat(const TermRef &F) {
  return decide(closeFreeVars(F, /*Universally=*/false));
}
