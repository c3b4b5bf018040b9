//===- analysis/EffectSnapshot.h - Incremental context analysis -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dirty-region memoization of the per-subtree summaries behind
/// computeContext, so a rewrite deep in a large procedure re-analyzes only
/// the spine it rebuilt. Two summary families are cached, keyed by the
/// hash-consed statement node (the pinned node address — rewrites produce
/// new nodes, so structural change invalidates by construction):
///
///   - the configuration read/write sets of a subtree, a pure function of
///     its structure (the walk looks through call bodies, which are
///     themselves immutable ProcRefs covered by the same node identity);
///   - the free-variable set of a subtree (the symbols used but not bound
///     within it), likewise purely structural and derived compositionally
///     — a block's set folds its children's cached sets under the
///     bindings earlier siblings introduce, so a rebuilt spine node
///     recomputes one level and shares the rest;
///   - the loop-stabilization probe (analysis::stabilizedKeys) — which
///     effect-environment keys fail to provably return to their entry
///     value across one symbolic body execution. That result additionally
///     depends on the binding environment on the spine, so each line is
///     fingerprinted by the environment slice of the body's free symbols
///     and configuration fields (the duplicated-environment hazard: the
///     same shared subtree can sit under two different spines, and a
///     summary derived under one must not leak to the other).
///
/// The snapshot deliberately caches *no* solver verdict and skips *no*
/// solver query: incremental and full analysis pose bit-identical safety
/// questions and differ only in avoided tree walks. That invariant is what
/// the fuzzer's differential mode (ScheduleGen) enforces — identical
/// accept/reject verdicts and identical posed-query counts, run for run.
///
/// A snapshot is thread-local state: activate it with
/// ScopedEffectSnapshot and computeContext, flowStmt and effect
/// extraction will consult it; deriveProc
/// notifies it of each rewrite so dirty-region entries are evicted
/// eagerly. Unlike the process-wide EffectCache there is no locking — a
/// snapshot belongs to one scheduling thread (one compile job).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_EFFECTSNAPSHOT_H
#define EXO_ANALYSIS_EFFECTSNAPSHOT_H

#include "analysis/Dataflow.h"
#include "ir/Proc.h"

#include <functional>
#include <unordered_map>

namespace exo {
namespace analysis {

/// Counters for one snapshot; exact per compile job since a snapshot
/// never leaves its thread.
struct EffectSnapshotStats {
  uint64_t Hits = 0;        ///< node-level summaries served from the table
  uint64_t Misses = 0;      ///< summaries (re)derived and stored
  uint64_t Invalidated = 0; ///< entries evicted by dirty-region advance
  uint64_t Evictions = 0;   ///< whole-table flushes on overflow
  /// Stabilization probes not run at all because the loop body flows as
  /// the identity; neither a hit nor a miss.
  uint64_t ProbesSkipped = 0;
  size_t Nodes = 0;         ///< statement nodes currently tracked
};

class EffectSnapshot {
public:
  /// Unions the subtree's configuration read/write sets into the output
  /// sets, deriving and memoizing per-node summaries on the way. Matches
  /// collectConfigAccesses exactly.
  void configSets(const ir::StmtRef &S, std::set<ir::Sym> &Reads,
                  std::set<ir::Sym> &Writes);

  /// The free variables of a block, exactly as ir::freeVars(Block)
  /// computes them, served from per-node summaries: symbols read or
  /// written in the block and not bound by an enclosing For iterator,
  /// allocation, or window binding within it.
  std::set<ir::Sym> blockFreeVars(const ir::Block &B);

  /// The loop-stabilization probe of stabilizedKeys for \p ForStmt under
  /// \p Pre, cached per (node, environment-slice) line; a miss runs
  /// \p Probe and stores its result.
  std::vector<ir::Sym>
  loopStabilizedKeys(const ir::StmtRef &ForStmt, const FlowState &Pre,
                     const std::function<std::vector<ir::Sym>()> &Probe);
  void noteProbeSkipped() { ++Stats.ProbesSkipped; }

  /// Notification from deriveProc: \p NewProc was derived from its parent
  /// with the recorded dirty region. Entries for the replaced statements
  /// and the rebuilt spine of the *parent* tree are evicted; everything
  /// else stays valid by node identity.
  void noteDerived(const ir::Proc &NewProc);

  EffectSnapshotStats stats() const {
    EffectSnapshotStats S = Stats;
    S.Nodes = Table.size();
    return S;
  }
  void clear();

private:
  struct ProbeLine {
    /// Environment slice: the (symbol, value, definedness) entries of the
    /// pre-state whose symbol is relevant to the body (FreeSyms). Sorted
    /// by symbol (EffEnv iteration order); a relevant symbol absent from
    /// the environment is encoded by non-membership.
    std::vector<std::tuple<ir::Sym, smt::TermRef, smt::TermRef>> Env;
    std::vector<ir::Sym> Changed;
  };

  /// Everything known about one statement node. Pin keeps the node alive
  /// so its address cannot be reused while it keys the table.
  struct NodeRecord {
    ir::StmtRef Pin;
    bool HaveCfg = false;
    std::set<ir::Sym> CfgReads, CfgWrites;
    bool HaveFree = false;
    std::set<ir::Sym> FreeUses; ///< free vars of the statement standalone
    bool HaveFreeSyms = false;
    std::set<ir::Sym> FreeSyms; ///< loop body: freeVars ∪ config fields
    std::vector<ProbeLine> Probes;
  };

  static constexpr size_t MaxNodes = 1u << 14;
  static constexpr size_t MaxProbesPerNode = 4;

  NodeRecord &recordFor(const ir::StmtRef &S);
  void deriveCfg(const ir::StmtRef &S);
  void cfgOfBlock(const ir::Block &B, std::set<ir::Sym> &Reads,
                  std::set<ir::Sym> &Writes);
  const std::set<ir::Sym> &freeUses(const ir::StmtRef &S);
  void evictSubtreeRoot(const ir::StmtRef &S);

  std::unordered_map<const ir::Stmt *, NodeRecord> Table;
  EffectSnapshotStats Stats;
};

/// The snapshot computeContext consults on this thread; null when
/// analysis runs in full (non-incremental) mode.
EffectSnapshot *activeEffectSnapshot();

/// RAII activation, nestable; pass nullptr to force full analysis inside
/// the scope (the differential fuzzing mode's reference run).
class ScopedEffectSnapshot {
public:
  explicit ScopedEffectSnapshot(EffectSnapshot *S);
  ~ScopedEffectSnapshot();
  ScopedEffectSnapshot(const ScopedEffectSnapshot &) = delete;
  ScopedEffectSnapshot &operator=(const ScopedEffectSnapshot &) = delete;

private:
  EffectSnapshot *Prev;
};

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_EFFECTSNAPSHOT_H
