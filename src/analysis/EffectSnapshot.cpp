//===- analysis/EffectSnapshot.cpp -----------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/EffectSnapshot.h"

#include "analysis/Context.h"

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

namespace {

using Fingerprint =
    std::vector<std::tuple<Sym, smt::TermRef, smt::TermRef>>;

/// The environment is small (config fields plus enclosing iterators);
/// walking it and filtering by relevance is much cheaper than probing the
/// environment for every free symbol of a large body.
Fingerprint fingerprintOf(const std::set<Sym> &FreeSyms,
                          const FlowState &State) {
  Fingerprint FP;
  for (auto &[Sy, Val] : State.Env)
    if (FreeSyms.count(Sy))
      FP.emplace_back(Sy, Val.Val, Val.Def);
  return FP;
}

/// Free uses of one expression, mirroring ir::freeVars' Collector: Read,
/// WindowExpr, and StrideExpr use their base symbol; config reads are not
/// free locals.
void exprUses(const ExprRef &E, std::set<Sym> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case ExprKind::Read:
  case ExprKind::WindowExpr:
  case ExprKind::StrideExpr:
    Out.insert(E->name());
    break;
  default:
    break;
  }
  for (auto &C : childExprs(E))
    exprUses(C, Out);
}

bool fingerprintsEqual(const Fingerprint &A, const Fingerprint &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (std::get<0>(A[I]) != std::get<0>(B[I]) ||
        !std::get<1>(A[I])->equals(*std::get<1>(B[I])) ||
        !std::get<2>(A[I])->equals(*std::get<2>(B[I])))
      return false;
  }
  return true;
}

} // namespace

EffectSnapshot::NodeRecord &EffectSnapshot::recordFor(const StmtRef &S) {
  NodeRecord &R = Table[S.get()];
  if (!R.Pin)
    R.Pin = S;
  return R;
}

/// Derives and stores the node's config read/write summary. Children are
/// pulled through the table, so after a rewrite the new spine node
/// recomputes only its own level and reuses the (shared) siblings below —
/// the sub-linear step this file exists for.
void EffectSnapshot::deriveCfg(const StmtRef &S) {
  std::set<Sym> Reads, Writes;
  ownConfigAccesses(S, Reads, Writes);
  if (S->kind() == StmtKind::Call)
    cfgOfBlock(S->proc()->body(), Reads, Writes);
  cfgOfBlock(S->body(), Reads, Writes);
  cfgOfBlock(S->orelse(), Reads, Writes);

  NodeRecord &R = recordFor(S);
  R.CfgReads = std::move(Reads);
  R.CfgWrites = std::move(Writes);
  R.HaveCfg = true;
}

void EffectSnapshot::cfgOfBlock(const Block &B, std::set<Sym> &Reads,
                                std::set<Sym> &Writes) {
  for (auto &S : B)
    configSets(S, Reads, Writes);
}

void EffectSnapshot::configSets(const StmtRef &S, std::set<Sym> &Reads,
                                std::set<Sym> &Writes) {
  if (Table.size() >= MaxNodes) {
    Table.clear();
    ++Stats.Evictions;
  }
  {
    NodeRecord &R = recordFor(S);
    if (R.HaveCfg) {
      ++Stats.Hits;
      Reads.insert(R.CfgReads.begin(), R.CfgReads.end());
      Writes.insert(R.CfgWrites.begin(), R.CfgWrites.end());
      return;
    }
  }
  ++Stats.Misses;
  // deriveCfg inserts child records; unordered_map rehashing keeps element
  // references stable, but we still re-fetch the record afterwards.
  deriveCfg(S);
  NodeRecord &R = recordFor(S);
  Reads.insert(R.CfgReads.begin(), R.CfgReads.end());
  Writes.insert(R.CfgWrites.begin(), R.CfgWrites.end());
}

/// The statement's standalone free-variable set: uses minus whatever the
/// statement itself binds around them (its own For iterator, earlier
/// Alloc/WindowStmt siblings inside nested blocks). Equals
/// ir::freeVars(StmtRef) — but children come through the table, so a
/// rebuilt node recomputes one level and shares the rest.
const std::set<Sym> &EffectSnapshot::freeUses(const StmtRef &S) {
  if (Table.size() >= MaxNodes) {
    Table.clear();
    ++Stats.Evictions;
  }
  {
    NodeRecord &R = recordFor(S);
    if (R.HaveFree) {
      ++Stats.Hits;
      return R.FreeUses;
    }
  }
  ++Stats.Misses;
  std::set<Sym> Uses;
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Reduce:
    Uses.insert(S->name());
    for (auto &I : S->indices())
      exprUses(I, Uses);
    exprUses(S->rhs(), Uses);
    break;
  case StmtKind::WriteConfig:
    exprUses(S->rhs(), Uses);
    break;
  case StmtKind::Pass:
    break;
  case StmtKind::If: {
    exprUses(S->rhs(), Uses);
    std::set<Sym> B = blockFreeVars(S->body());
    Uses.insert(B.begin(), B.end());
    std::set<Sym> O = blockFreeVars(S->orelse());
    Uses.insert(O.begin(), O.end());
    break;
  }
  case StmtKind::For: {
    exprUses(S->lo(), Uses);
    exprUses(S->hi(), Uses);
    std::set<Sym> B = blockFreeVars(S->body());
    B.erase(S->name());
    Uses.insert(B.begin(), B.end());
    break;
  }
  case StmtKind::Alloc:
    for (auto &D : S->allocType().dims())
      exprUses(D, Uses);
    break;
  case StmtKind::Call:
    for (auto &A : S->args())
      exprUses(A, Uses);
    break;
  case StmtKind::WindowStmt:
    exprUses(S->rhs(), Uses);
    break;
  }
  // Recursion may have grown (or, on overflow, flushed) the table;
  // re-fetch the record before storing.
  NodeRecord &R = recordFor(S);
  R.FreeUses = std::move(Uses);
  R.HaveFree = true;
  return R.FreeUses;
}

std::set<Sym> EffectSnapshot::blockFreeVars(const Block &B) {
  // Alloc/WindowStmt bindings scope to the rest of the block; a For's
  // iterator does not outlive the statement. Same fold as ir::freeVars.
  std::set<Sym> Free, Bound;
  for (auto &S : B) {
    const std::set<Sym> &U = freeUses(S);
    for (Sym Sy : U)
      if (!Bound.count(Sy))
        Free.insert(Sy);
    if (S->kind() == StmtKind::Alloc || S->kind() == StmtKind::WindowStmt)
      Bound.insert(S->name());
  }
  return Free;
}

std::vector<Sym> EffectSnapshot::loopStabilizedKeys(
    const StmtRef &ForStmt, const FlowState &Pre,
    const std::function<std::vector<Sym>()> &Probe) {
  assert(ForStmt->kind() == StmtKind::For && "not a loop");
  if (Table.size() >= MaxNodes) {
    Table.clear();
    ++Stats.Evictions;
  }
  // The probe's result is a function of the body's structure and the
  // environment slice of its free symbols and configuration fields (read
  // or written, looking through call bodies): the body flow only ever
  // rewrites written config fields, with values built from that slice and
  // from canonical per-symbol solver variables. Entry window aliases
  // cannot influence it — the flow uses them only to compose further
  // aliases, never environment values.
  if (!recordFor(ForStmt).HaveFreeSyms) {
    std::set<Sym> Syms = blockFreeVars(ForStmt->body());
    std::set<Sym> Rd, Wr;
    cfgOfBlock(ForStmt->body(), Rd, Wr);
    Syms.insert(Rd.begin(), Rd.end());
    Syms.insert(Wr.begin(), Wr.end());
    // cfgOfBlock may have flushed the table; re-fetch before storing.
    NodeRecord &R = recordFor(ForStmt);
    R.FreeSyms = std::move(Syms);
    R.HaveFreeSyms = true;
  }
  Fingerprint FP = fingerprintOf(recordFor(ForStmt).FreeSyms, Pre);
  for (const ProbeLine &Line : recordFor(ForStmt).Probes)
    if (fingerprintsEqual(Line.Env, FP)) {
      ++Stats.Hits;
      return Line.Changed;
    }
  ++Stats.Misses;
  std::vector<Sym> Changed = Probe();
  // The probe's nested loops go through this table and may have flushed
  // it, so the record is fetched afresh.
  NodeRecord &R = recordFor(ForStmt);
  if (R.Probes.size() >= MaxProbesPerNode)
    R.Probes.clear();
  R.Probes.push_back(ProbeLine{std::move(FP), Changed});
  return Changed;
}

void EffectSnapshot::evictSubtreeRoot(const StmtRef &S) {
  // Only the root's record dies with it; records of its descendants stay —
  // the replacement usually shares them (splitLoop reuses the body
  // statements, fuseLoops the two bodies, and so on).
  Stats.Invalidated += Table.erase(S.get());
}

void EffectSnapshot::noteDerived(const Proc &NewProc) {
  const std::optional<DirtyRegion> &D = NewProc.dirtyRegion();
  const ProcRef &Parent = NewProc.parent();
  // Whole-proc rewrites evict nothing: entries are keyed by node identity
  // and stay correct for whatever nodes the new tree still shares; dead
  // nodes age out via the capacity bound.
  if (!D || D->Whole || !Parent)
    return;
  // The spine indices are identical in parent and child — replaceRange
  // rebuilds the spine statement at the same index of each level.
  const Block *B = &Parent->body();
  for (const DirtyRegion::Step &Step : D->Path) {
    if (Step.Index >= B->size())
      return; // region does not resolve in the parent; nothing to evict
    const StmtRef &S = (*B)[Step.Index];
    evictSubtreeRoot(S);
    B = Step.IntoOrelse ? &S->orelse() : &S->body();
  }
  for (unsigned I = D->Begin; I < D->Begin + D->OldCount && I < B->size();
       ++I)
    evictSubtreeRoot((*B)[I]);
}

void EffectSnapshot::clear() { Table.clear(); }

namespace {

EffectSnapshot *&activeSlot() {
  thread_local EffectSnapshot *Active = nullptr;
  return Active;
}

} // namespace

EffectSnapshot *exo::analysis::activeEffectSnapshot() { return activeSlot(); }

ScopedEffectSnapshot::ScopedEffectSnapshot(EffectSnapshot *S) {
  Prev = activeSlot();
  activeSlot() = S;
}

ScopedEffectSnapshot::~ScopedEffectSnapshot() { activeSlot() = Prev; }
