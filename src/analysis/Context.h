//===- analysis/Context.h - One-holed contexts (§6) ------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement cursors and the derived context quantities of §6.1:
///
///   CtrlPred  — under what path condition the selected code executes
///               (enclosing guards, loop bounds, asserted preconditions);
///   PreValG   — the dataflow state just before the selection;
///   PostEff   — a sound approximation of what executes afterwards, which
///               for the context-extension theorem (§6.2) only needs the
///               set of configuration fields possibly read later.
///
/// A StmtCursor addresses a contiguous statement range [Begin, End) inside
/// the block reached by walking Path from the procedure body.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_CONTEXT_H
#define EXO_ANALYSIS_CONTEXT_H

#include "analysis/Effects.h"
#include "ir/Proc.h"

namespace exo {
namespace analysis {

/// One step of a path into nested statements.
struct PathStep {
  unsigned Index;              ///< statement index in the current block
  enum class Branch { Body, Orelse } Into = Branch::Body;
};

/// Selects statements [Begin, End) of the block reached via Path.
struct StmtCursor {
  std::vector<PathStep> Path;
  unsigned Begin = 0;
  unsigned End = 0; ///< exclusive; End == Begin + 1 selects one statement

  unsigned count() const { return End - Begin; }
};

/// Resolves the block a cursor points into. Aborts on malformed cursors
/// (scheduling ops only build cursors from successful pattern matches).
const ir::Block &blockAt(const ir::Proc &P, const StmtCursor &C);
/// The selected statements.
std::vector<ir::StmtRef> selectedStmts(const ir::Proc &P, const StmtCursor &C);

/// Functionally replaces the selected range with \p NewStmts, returning a
/// new body block for the procedure.
ir::Block replaceRange(const ir::Block &Body, const StmtCursor &C,
                       const std::vector<ir::StmtRef> &NewStmts);

/// The derived context quantities.
struct ContextInfo {
  FlowState Pre;                    ///< PreValG: state before the selection
  TriBool PathCond = TriBool::yes(); ///< CtrlPred + preconditions
  /// Enclosing For statements, outermost first (their iterators are bound
  /// in Pre.Env to fresh solver variables).
  std::vector<ir::StmtRef> EnclosingLoops;
  /// Configuration fields possibly read by code executing after the
  /// selection (including later iterations of enclosing loops).
  std::set<ir::Sym> PostReadFields;
  /// Configuration fields possibly written by code executing after the
  /// selection.
  std::set<ir::Sym> PostWriteFields;
};

ContextInfo computeContext(AnalysisCtx &Ctx, const ir::Proc &P,
                           const StmtCursor &C);

/// The configuration fields \p S reads and writes at its own level: not
/// in nested blocks, callee bodies or call arguments.
void ownConfigAccesses(const ir::StmtRef &S, std::set<ir::Sym> &Reads,
                       std::set<ir::Sym> &Writes);
/// Syntactic sets of configuration fields read and written anywhere in
/// the fragment, looking through call bodies; assertions are excluded.
void collectConfigAccesses(const ir::Block &B, std::set<ir::Sym> &Reads,
                           std::set<ir::Sym> &Writes);

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_CONTEXT_H
