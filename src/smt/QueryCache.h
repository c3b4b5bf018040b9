//===- smt/QueryCache.h - Memoized solver query cache ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide memo table for closed solver queries. Keys are canonical
/// serializations — bound variables are alpha-renamed to De Bruijn *levels*
/// (binder depth, so sibling subterms canonicalize independently), free
/// variables are alpha-renamed to their first-occurrence order in a
/// pre-order walk (so no raw VarId ever reaches a key and re-posed
/// obligations over freshly minted variables still collide), and the
/// children of commutative operators (And, Or, Add, Eq) are sorted. Two
/// terms with equal keys are logically equivalent up to a bijective
/// renaming of variables, hence share a verdict; a hit returns exactly
/// what the cold decision procedure returned.
///
/// Entries are tagged with the *cache job* (see ScopedQueryJob) that
/// inserted them, so the stats can attribute each hit as same-job or
/// cross-job. Cross-job hits are the currency of warm multi-compile paths
/// (BatchDriver, exocc-serve, exocc-tune): they measure how much one
/// compile amortizes for the next.
///
/// Only Yes/No verdicts are stored. Unknown is NEVER cached: it depends on
/// the literal budget, so raising the budget must re-run the query. Yes/No
/// are budget-independent (the budget can only cause Unknown), so the key
/// does not include the budget.
///
/// The table is striped (independently locked shards, selected by key
/// hash) so concurrent compile sessions share verdicts without sharing a
/// mutex; see the "Threading model" section of DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_QUERYCACHE_H
#define EXO_SMT_QUERYCACHE_H

#include "smt/Solver.h"

#include <string>

namespace exo {
namespace smt {

/// Counters for the process-wide query cache.
struct QueryCacheStats {
  uint64_t Hits = 0;        ///< lookups that returned a stored verdict
  uint64_t Misses = 0;      ///< lookups that found nothing
  uint64_t Insertions = 0;  ///< verdicts stored
  uint64_t Evictions = 0;   ///< whole-table flushes on overflow
  uint64_t Uncacheable = 0; ///< keys abandoned at the serialization size cap
  /// Hits whose entry was inserted by a *different* cache job than the one
  /// performing the lookup (subset of Hits). Each CompileSession::run
  /// installs a fresh job id, so this counts verdicts one compile reused
  /// from another in the same process — batch siblings, daemon requests,
  /// tuner candidates.
  uint64_t CrossJobHits = 0;
  size_t Size = 0;          ///< entries currently stored (a gauge)

  /// The counts accumulated since \p Before; Size stays this snapshot's.
  QueryCacheStats since(const QueryCacheStats &Before) const;
  support::Json toJson() const;
};

/// Canonical key of a closed query (see file comment for the rules).
/// Returns the empty string when serialization exceeds the size cap;
/// callers must treat that query as uncacheable.
std::string canonicalQueryKey(const TermRef &Closed);

/// Global enable switch (defaults to on); mirrors setDefaultMaxLiterals so
/// ablation benches can toggle it process-wide.
bool queryCacheEnabled();
void setQueryCacheEnabled(bool Enabled);

/// Looks up \p Key; on a hit stores the verdict in \p Out and returns true.
bool queryCacheLookup(const std::string &Key, SolverResult &Out);

/// Stores a Yes/No verdict. Calls with Unknown are ignored (and assert in
/// debug builds); empty keys are ignored.
void queryCacheInsert(const std::string &Key, SolverResult R);

QueryCacheStats solverQueryCacheStats();

/// The calling thread's own cache activity (Size is always 0 here). A
/// compile job runs entirely on one worker thread, so before/after deltas
/// of this snapshot give exact per-job hit counts even while sibling jobs
/// hammer the same stripes.
QueryCacheStats queryCacheThreadStats();

void clearSolverQueryCache();

/// Cache-job identity for cross-job hit attribution. A "job" is one
/// logical compile (CompileSession::run installs one for its whole
/// build+codegen span); ids are process-unique and never reused. The id is
/// thread-local: a job runs entirely on one thread, and concurrent jobs on
/// other threads each carry their own. Id 0 means "outside any job"
/// (ad-hoc solver use); entries inserted there still count as cross-job
/// when a later job hits them.
class ScopedQueryJob {
public:
  ScopedQueryJob();
  ~ScopedQueryJob();
  ScopedQueryJob(const ScopedQueryJob &) = delete;
  ScopedQueryJob &operator=(const ScopedQueryJob &) = delete;
  uint64_t id() const { return Id; }

private:
  uint64_t Id;
  uint64_t Prev;
};

/// The calling thread's current cache-job id (0 when none installed).
uint64_t currentQueryJobId();

} // namespace smt
} // namespace exo

#endif // EXO_SMT_QUERYCACHE_H
