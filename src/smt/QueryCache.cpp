//===- smt/QueryCache.cpp --------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/QueryCache.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

using namespace exo;
using namespace exo::smt;

//===----------------------------------------------------------------------===//
// Canonical serialization
//===----------------------------------------------------------------------===//

namespace {

/// First pass: number the free variables of the query by first occurrence
/// in a natural (unsorted) pre-order walk. The numbering is a pure
/// function of term structure — it never sees the raw VarId beyond
/// identity — so alpha-renamed re-posings of the same obligation get the
/// same numbers. Conflating two keys therefore only ever identifies terms
/// equal up to a bijective renaming of free variables, which preserves the
/// verdict.
struct FreeVarNumberer {
  std::unordered_map<unsigned, unsigned> Canon; ///< id -> canonical index
  std::unordered_map<unsigned, unsigned> Bound; ///< id -> active binders

  void walk(const TermRef &T) {
    switch (T->kind()) {
    case TermKind::IntConst:
    case TermKind::BoolConst:
      return;
    case TermKind::Var: {
      unsigned Id = T->var().Id;
      auto B = Bound.find(Id);
      if (B == Bound.end() || B->second == 0)
        Canon.emplace(Id, (unsigned)Canon.size());
      return;
    }
    case TermKind::Forall:
    case TermKind::Exists: {
      unsigned Id = T->var().Id;
      ++Bound[Id];
      walk(T->operand(0));
      --Bound[Id];
      return;
    }
    default:
      for (auto &Op : T->operands())
        walk(Op);
      return;
    }
  }
};

/// Serializer state. Bound variables map to the *level* (depth) of their
/// binder, so the rendering of a subterm depends only on the binders above
/// it — which is what lets us sort the children of commutative operators
/// independently. Shadowing is handled with a per-id level stack. Free
/// variables render as their canonical first-occurrence index (computed by
/// FreeVarNumberer before rendering), never as a raw VarId.
struct KeySerializer {
  // Keys past this size cost more to build and compare than the solve they
  // would save; abandon them.
  static constexpr size_t MaxKeyBytes = 4u << 20;

  std::unordered_map<unsigned, std::vector<unsigned>> Levels;
  const std::unordered_map<unsigned, unsigned> *FreeCanon = nullptr;
  unsigned Depth = 0;
  bool Overflow = false;

  std::string render(const TermRef &T) {
    std::string Out;
    switch (T->kind()) {
    case TermKind::IntConst:
      Out = "i" + std::to_string(T->intValue());
      break;
    case TermKind::BoolConst:
      Out = T->boolValue() ? "t" : "f";
      break;
    case TermKind::Var: {
      auto It = Levels.find(T->var().Id);
      if (It != Levels.end() && !It->second.empty()) {
        Out = "b" + std::to_string(It->second.back());
      } else {
        // Free var: render the canonical first-occurrence index, never the
        // raw VarId (ids are fresh per compile and would defeat
        // cross-compile sharing).
        Out = "v?"; // unreachable when FreeCanon covers the term
        if (FreeCanon) {
          auto C = FreeCanon->find(T->var().Id);
          if (C != FreeCanon->end())
            Out = "v" + std::to_string(C->second);
        }
      }
      break;
    }
    case TermKind::Mul:
    case TermKind::Div:
    case TermKind::Mod: {
      const char *Tag = T->kind() == TermKind::Mul   ? "*"
                        : T->kind() == TermKind::Div ? "/"
                                                     : "%";
      Out = "(" + std::string(Tag) + std::to_string(T->scalar()) + " " +
            render(T->operand(0)) + ")";
      break;
    }
    case TermKind::Add:
    case TermKind::And:
    case TermKind::Or:
    case TermKind::Eq: {
      // Commutative: sort the children's renderings.
      const char *Tag = T->kind() == TermKind::Add ? "+"
                        : T->kind() == TermKind::And
                            ? "&"
                            : T->kind() == TermKind::Or ? "|" : "=";
      std::vector<std::string> Parts;
      Parts.reserve(T->numOperands());
      for (auto &Op : T->operands())
        Parts.push_back(render(Op));
      std::sort(Parts.begin(), Parts.end());
      Out = "(" + std::string(Tag);
      for (auto &P : Parts) {
        Out += ' ';
        Out += P;
      }
      Out += ')';
      break;
    }
    case TermKind::Le:
    case TermKind::Lt:
    case TermKind::Not:
    case TermKind::Implies:
    case TermKind::Ite: {
      const char *Tag = T->kind() == TermKind::Le    ? "<="
                        : T->kind() == TermKind::Lt  ? "<"
                        : T->kind() == TermKind::Not ? "!"
                        : T->kind() == TermKind::Implies
                            ? ">"
                            : T->sort() == Sort::Int ? "?i" : "?b";
      Out = "(" + std::string(Tag);
      for (auto &Op : T->operands()) {
        Out += ' ';
        Out += render(Op);
      }
      Out += ')';
      break;
    }
    case TermKind::Forall:
    case TermKind::Exists: {
      unsigned Id = T->var().Id;
      Levels[Id].push_back(Depth);
      ++Depth;
      std::string Body = render(T->operand(0));
      --Depth;
      auto It = Levels.find(Id);
      It->second.pop_back();
      if (It->second.empty())
        Levels.erase(It);
      Out = std::string(T->kind() == TermKind::Forall ? "(A " : "(E ") + Body +
            ")";
      break;
    }
    }
    if (Out.size() > MaxKeyBytes)
      Overflow = true;
    return Overflow ? std::string() : Out;
  }
};

} // namespace

std::string exo::smt::canonicalQueryKey(const TermRef &Closed) {
  FreeVarNumberer N;
  N.walk(Closed);
  KeySerializer S;
  S.FreeCanon = &N.Canon;
  std::string Key = S.render(Closed);
  return S.Overflow ? std::string() : Key;
}

//===----------------------------------------------------------------------===//
// Process-wide memo table
//===----------------------------------------------------------------------===//

namespace {

/// The memo table is *striped*: entries distribute across independently
/// locked shards by key hash, so concurrent compile sessions looking up
/// disjoint obligations never contend. The table is read-mostly once warm
/// (hits outnumber insertions by orders of magnitude on schedule replays),
/// so per-stripe mutexes — not a global one — are what keep the parallel
/// batch driver off a single lock. Flush-on-cap becomes per stripe; a
/// flush only forgets verdicts, never changes one.
/// A stored verdict plus the cache job that inserted it (for same-job vs
/// cross-job hit attribution; see ScopedQueryJob).
struct CacheEntry {
  SolverResult R;
  uint64_t OwnerJob;
};

struct CacheStripe {
  std::mutex M;
  std::unordered_map<std::string, CacheEntry> Table;
  QueryCacheStats Stats;
  size_t KeyBytes = 0;
};

struct QueryCache {
  static constexpr size_t NumStripes = 16; // power of two
  CacheStripe Stripes[NumStripes];
  std::atomic<bool> Enabled{true};

  static constexpr size_t MaxEntriesPerStripe = (1u << 16) / NumStripes;
  static constexpr size_t MaxBytesPerStripe = (64u << 20) / NumStripes;

  CacheStripe &stripeFor(const std::string &Key) {
    size_t H = std::hash<std::string>()(Key);
    return Stripes[(H >> 8) & (NumStripes - 1)];
  }

  static QueryCache &get() {
    static QueryCache C;
    return C;
  }
};

/// Thread-local current cache-job id; 0 outside any job. Minted from a
/// process-wide counter so ids are never reused.
thread_local uint64_t CurrentJobId = 0;
std::atomic<uint64_t> NextJobId{1};

/// Thread-local mirror of this thread's own cache activity, so a compile
/// job (which runs entirely on one thread) can take exact deltas without
/// seeing its concurrent siblings' traffic.
thread_local QueryCacheStats TLStats;

} // namespace

exo::smt::ScopedQueryJob::ScopedQueryJob()
    : Id(NextJobId.fetch_add(1, std::memory_order_relaxed)),
      Prev(CurrentJobId) {
  CurrentJobId = Id;
}

exo::smt::ScopedQueryJob::~ScopedQueryJob() { CurrentJobId = Prev; }

uint64_t exo::smt::currentQueryJobId() { return CurrentJobId; }

bool exo::smt::queryCacheEnabled() {
  return QueryCache::get().Enabled.load(std::memory_order_relaxed);
}

void exo::smt::setQueryCacheEnabled(bool Enabled) {
  QueryCache::get().Enabled.store(Enabled, std::memory_order_relaxed);
}

bool exo::smt::queryCacheLookup(const std::string &Key, SolverResult &Out) {
  QueryCache &C = QueryCache::get();
  if (Key.empty()) {
    ++TLStats.Uncacheable;
    CacheStripe &S = C.Stripes[0]; // arbitrary home for the counter
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Stats.Uncacheable;
    return false;
  }
  CacheStripe &S = C.stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Table.find(Key);
  if (It == S.Table.end()) {
    ++S.Stats.Misses;
    ++TLStats.Misses;
    return false;
  }
  ++S.Stats.Hits;
  ++TLStats.Hits;
  if (It->second.OwnerJob != CurrentJobId) {
    ++S.Stats.CrossJobHits;
    ++TLStats.CrossJobHits;
  }
  Out = It->second.R;
  return true;
}

void exo::smt::queryCacheInsert(const std::string &Key, SolverResult R) {
  assert(R != SolverResult::Unknown && "Unknown must never be cached");
  if (Key.empty() || R == SolverResult::Unknown)
    return;
  CacheStripe &S = QueryCache::get().stripeFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Table.size() >= QueryCache::MaxEntriesPerStripe ||
      S.KeyBytes + Key.size() > QueryCache::MaxBytesPerStripe) {
    S.Table.clear();
    S.KeyBytes = 0;
    ++S.Stats.Evictions;
  }
  auto [It, Inserted] = S.Table.emplace(Key, CacheEntry{R, CurrentJobId});
  if (Inserted) {
    S.KeyBytes += Key.size();
    ++S.Stats.Insertions;
    ++TLStats.Insertions;
  }
}

QueryCacheStats exo::smt::queryCacheThreadStats() { return TLStats; }

static const support::CounterField<QueryCacheStats> QueryCacheStatFields[] = {
    {"hits", &QueryCacheStats::Hits},
    {"misses", &QueryCacheStats::Misses},
    {"insertions", &QueryCacheStats::Insertions},
    {"evictions", &QueryCacheStats::Evictions},
    {"uncacheable", &QueryCacheStats::Uncacheable},
    {"cross_job_hits", &QueryCacheStats::CrossJobHits},
};

QueryCacheStats QueryCacheStats::since(const QueryCacheStats &Before) const {
  return support::countersSince(*this, Before, QueryCacheStatFields);
}

support::Json QueryCacheStats::toJson() const {
  return support::countersJson(*this, QueryCacheStatFields)
      .set("size", static_cast<uint64_t>(Size));
}

QueryCacheStats exo::smt::solverQueryCacheStats() {
  QueryCache &C = QueryCache::get();
  QueryCacheStats Sum;
  for (CacheStripe &S : C.Stripes) {
    std::lock_guard<std::mutex> Lock(S.M);
    support::countersAdd(Sum, S.Stats, QueryCacheStatFields);
    Sum.Size += S.Table.size();
  }
  return Sum;
}

void exo::smt::clearSolverQueryCache() {
  QueryCache &C = QueryCache::get();
  for (CacheStripe &S : C.Stripes) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Table.clear();
    S.KeyBytes = 0;
  }
}
