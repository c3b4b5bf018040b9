//===- scheduling/OpsCommon.h - Shared op helpers (private) ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the scheduling operator implementations.
/// Not installed; include only from scheduling/*.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_OPSCOMMON_H
#define EXO_SCHEDULING_OPSCOMMON_H

#include "analysis/Checks.h"
#include "scheduling/Cursor.h"

#include <optional>

namespace exo {
namespace scheduling {

/// Builds the derived procedure: same signature, new body, provenance
/// link to \p Old with the given configuration delta. This overload is
/// for whole-body rewrites (simplify, set_precision, ...): the recorded
/// dirty region says "assume nothing is shared".
ir::ProcRef deriveProc(const ir::ProcRef &Old, ir::Block NewBody,
                       std::set<ir::Sym> Delta = {});

/// Cursor-carrying overload: the rewrite replaced the \p C selection of
/// \p Old's body with \p NewCount statements (NewBody is the result of
/// replaceRange at that cursor). The derived proc records the precise
/// DirtyRegion — spine path plus replaced range — which the active
/// EffectSnapshot uses for eager invalidation, and which debug builds
/// validate against the tree in the well-formedness pass.
ir::ProcRef deriveProc(const ir::ProcRef &Old, ir::Block NewBody,
                       const StmtCursor &C, unsigned NewCount,
                       std::set<ir::Sym> Delta = {});

/// The deduplicated effect-extraction preamble the analysis-backed
/// operators used to copy-paste: one AnalysisCtx plus the lazily-derived
/// one-holed context of §6.1 for a resolved cursor. Construct it once
/// the target is resolved; call info() only on the paths that need
/// analysis (several operators have analysis-free fast paths). derive()
/// splices a replacement at the cursor and stamps the dirty region.
class OpContext {
public:
  OpContext(const ir::ProcRef &P, StmtCursor Sel)
      : P(P), C(std::move(Sel)) {}

  const StmtCursor &cursor() const { return C; }
  std::vector<ir::StmtRef> stmts() const {
    return analysis::selectedStmts(*P, C);
  }
  ir::StmtRef stmt() const { return stmts()[0]; }

  analysis::AnalysisCtx Ctx;
  const analysis::ContextInfo &info() {
    if (!Info)
      Info = analysis::computeContext(Ctx, *P, C);
    return *Info;
  }

  /// deriveProc(replaceRange(...)) with the dirty region recorded.
  ir::ProcRef derive(const std::vector<ir::StmtRef> &Replacement,
                     std::set<ir::Sym> Delta = {}) const {
    return deriveProc(P, analysis::replaceRange(P->body(), C, Replacement),
                      C, unsigned(Replacement.size()), std::move(Delta));
  }

private:
  ir::ProcRef P;
  StmtCursor C;
  std::optional<analysis::ContextInfo> Info;
};

/// The name of the scheduling operator currently executing on this
/// thread ("" outside any operator). finishDerive stamps it into the
/// derived proc's DirtyRegion so cursor forwarding can say *which*
/// rewrite invalidated a handle.
const char *currentOpName();

/// RAII scope naming the operator for the duration of its body. Every
/// primitive installs one at entry; composites inherit the innermost
/// primitive's name, which is what the forwarding diagnostics want.
class ScopedOpName {
public:
  explicit ScopedOpName(const char *Name);
  ~ScopedOpName();
  ScopedOpName(const ScopedOpName &) = delete;
  ScopedOpName &operator=(const ScopedOpName &) = delete;

private:
  const char *Prev;
};

/// A failure of the operator running on this thread: kind and message as
/// given, with currentOpName() recorded as its ScheduleErrorInfo::Op (a
/// plain error outside any operator).
inline Error opError(Error::Kind K, std::string Msg) {
  const char *Op = currentOpName();
  if (!*Op)
    return makeError(K, std::move(Msg));
  ScheduleErrorInfo Info;
  Info.Op = Op;
  return makeScheduleError(K, std::move(Msg), std::move(Info));
}

/// Recursively simplifies index arithmetic (constant folding, neutral
/// elements) — shared by simplify() and the ops that synthesize indices.
ir::ExprRef simplifyExpr(const ir::ExprRef &E);

/// The statement a single-target operator acts on: the first statement
/// of \p C's selection. Null and gap cursors select none.
Expected<StmtCursor> targetOf(const Cursor &C);

/// The same, additionally requiring a statement of kind \p K (\p What
/// names it in the error: "a loop", "an allocation", ...).
Expected<StmtCursor> targetOfKind(const Cursor &C, ir::StmtKind K,
                                  const char *What);

/// The whole selection of a selection-width operator (stage_mem,
/// replace). Null and gap cursors select nothing.
Expected<StmtCursor> selectionOf(const Cursor &C);

/// Resolves \p Pattern to a cursor that must select one statement of
/// kind \p K; the error names the pattern.
Expected<Cursor> findOneOfKind(const ir::ProcRef &P, const std::string &Pattern,
                               ir::StmtKind K, const char *What);

/// Records \p Pattern in \p E's ScheduleErrorInfo unless a pattern is
/// already there; message, kind, operator and verdict stay as they are.
Error stampPattern(const Error &E, const std::string &Pattern);

/// The body of every pattern-addressed spelling: the pattern has been
/// resolved to \p C (or failed to resolve) exactly once; run the cursor
/// form \p F on it and stamp the pattern into any failure.
template <typename Fn>
Expected<ir::ProcRef> atCursor(const Expected<Cursor> &C,
                               const std::string &Pattern, Fn &&F) {
  Expected<ir::ProcRef> R = C ? F(*C) : Expected<ir::ProcRef>(C.error());
  if (!R)
    return stampPattern(R.error(), Pattern);
  return R;
}

/// Pattern entry points: resolve, then run the cursor form.
template <typename Fn>
Expected<ir::ProcRef> atPattern(const ir::ProcRef &P,
                                const std::string &Pattern, Fn &&F,
                                unsigned Count = 1) {
  return atCursor(Cursor::find(P, Pattern, Count), Pattern, F);
}
template <typename Fn>
Expected<ir::ProcRef> atPatternOfKind(const ir::ProcRef &P,
                                      const std::string &Pattern,
                                      ir::StmtKind K, const char *What,
                                      Fn &&F) {
  return atCursor(findOneOfKind(P, Pattern, K, What), Pattern, F);
}

/// Discharges a safety condition under the premise. On success returns
/// nullopt; on failure, a Safety error whose structured payload records
/// the operator, the location it was working on, and the solver's
/// verdict (No vs. Unknown-budget vs. Unknown-structural). Pattern
/// spellings add their pattern on the way out (stampPattern).
inline std::optional<Error>
checkProved(analysis::AnalysisCtx &Ctx, const analysis::TriBool &Premise,
            const smt::TermRef &Cond, const char *Op, std::string Loc,
            std::string Msg) {
  ScheduleErrorInfo::Verdict V =
      analysis::dischargeUnderPremise(Ctx, Premise, Cond);
  if (V == ScheduleErrorInfo::Verdict::Yes)
    return std::nullopt;
  ScheduleErrorInfo Info;
  Info.Op = Op;
  Info.Loc = std::move(Loc);
  Info.SolverVerdict = V;
  return makeScheduleError(Error::Kind::Safety, std::move(Msg),
                           std::move(Info));
}

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_OPSCOMMON_H
