//===- scheduling/Cursor.h - First-class scheduling cursors ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-class cursors (Exo 2, "Growing a Scheduling Language"): a Cursor
/// is a stable handle to a statement selection — or to a zero-width *gap*
/// between statements — anchored in a specific ProcRef. Cursors are
/// resolved once (from a pattern, or by structural navigation from
/// another cursor) and then *forwarded* across rewrites instead of being
/// re-matched: `forwardTo(Derived)` composes the ForwardingMap of every
/// rewrite on the provenance chain (see Forward.h) and either re-anchors
/// the cursor in the derived procedure or fails with a structured
/// ScheduleErrorInfo naming the operator that consumed it.
///
/// The cursor is the primitive operators' real argument: each operator
/// below has exactly one implementation, and it takes a Cursor. The
/// pattern spellings in Schedule.h are thin entry points that resolve
/// their pattern to a cursor once (Cursor::find) and call the cursor form,
/// so both spellings perform the same rewrite. A cursor obtained by
/// navigation can point at code no unambiguous pattern string exists for
/// (e.g. one of two same-named loops at different nesting depths).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_CURSOR_H
#define EXO_SCHEDULING_CURSOR_H

#include "scheduling/Forward.h"
#include "scheduling/Schedule.h"

namespace exo {
namespace scheduling {

class Cursor {
public:
  /// A null cursor; every accessor fails until one is resolved.
  Cursor() = default;

  /// Resolves a cursor from a pattern string: the usual entry point.
  /// The selection covers [match, match + Count) statements.
  static Expected<Cursor> find(const ProcRef &P, const std::string &Pattern,
                               unsigned Count = 1);
  /// The whole procedure body, [0, size).
  static Cursor whole(const ProcRef &P);
  /// Wraps an already-resolved low-level cursor (used by the fuzz
  /// property layer, which enumerates positions directly).
  static Cursor fromStmtCursor(const ProcRef &P, StmtCursor C);

  bool null() const { return !Anchor; }
  const ProcRef &proc() const { return Anchor; }
  const StmtCursor &raw() const { return Cur; }
  /// True for a zero-width gap between statements.
  bool isGap() const { return Cur.Begin == Cur.End; }
  unsigned count() const { return Cur.count(); }

  /// The selected statements ([] for gaps).
  std::vector<ir::StmtRef> stmts() const;
  /// The single selected statement; errors on gaps and multi-selections.
  Expected<ir::StmtRef> stmt() const;

  //--- Structural navigation ----------------------------------------------
  // All navigation returns a new cursor anchored in the same procedure;
  // structurally impossible moves return an Error.

  /// First statement of the selected For/If's body.
  Expected<Cursor> body() const;
  /// First statement of the selected If's orelse block.
  Expected<Cursor> orelse() const;
  /// The next sibling statement (the one after the selection / gap).
  Expected<Cursor> next() const;
  /// The previous sibling statement.
  Expected<Cursor> prev() const;
  /// The enclosing For/If statement.
  Expected<Cursor> parent() const;
  /// The gap immediately before the selection.
  Cursor before() const;
  /// The gap immediately after the selection.
  Cursor after() const;
  /// Widens the selection by \p Extra trailing statements.
  Expected<Cursor> expand(unsigned Extra) const;

  //--- Forwarding ----------------------------------------------------------

  /// Re-anchors this cursor in \p Target, a procedure derived from
  /// proc() by scheduling rewrites, by composing the forwarding map of
  /// every rewrite on the provenance chain. Invalidated cursors produce
  /// an Error whose ScheduleErrorInfo names the operator that consumed
  /// the cursor and why.
  Expected<Cursor> forwardTo(const ProcRef &Target) const;
  /// The same, exposing the fate (unchanged / shifted / rebuilt /
  /// invalidated) instead of folding it into an Error.
  ForwardResult forwardResult(const ProcRef &Target) const;

  /// Diagnostic rendering: "gemmini_matmul@[2.body, 0.body] 1:3".
  std::string str() const;

private:
  Cursor(ProcRef P, StmtCursor C) : Anchor(std::move(P)), Cur(std::move(C)) {}

  ProcRef Anchor;
  StmtCursor Cur;
};

//===----------------------------------------------------------------------===//
// The primitive operators, addressed by cursor (semantics in Schedule.h).
// Single-target operators act on the first statement of the selection;
// selection-width operators (stageMem, replaceWith) act on all of it. The
// rewrite happens in the cursor's anchor procedure; null and gap cursors
// are errors.
//===----------------------------------------------------------------------===//

Expected<ProcRef> splitLoop(const Cursor &Loop, int64_t Factor,
                            const std::string &OuterName,
                            const std::string &InnerName,
                            SplitTail Tail = SplitTail::Guard);
Expected<ProcRef> reorderLoops(const Cursor &Loop);
Expected<ProcRef> unrollLoop(const Cursor &Loop);
Expected<ProcRef> partitionLoop(const Cursor &Loop, int64_t Cut);
Expected<ProcRef> removeLoop(const Cursor &Loop);
Expected<ProcRef> fuseLoops(const Cursor &Loop);
Expected<ProcRef> liftIf(const Cursor &If);
Expected<ProcRef> reorderStmts(const Cursor &First);
Expected<ProcRef> moveStmtUp(const Cursor &Stmt);
Expected<ProcRef> hoistStmtToTop(const Cursor &Stmt);
Expected<ProcRef> fissionAfter(const Cursor &Stmt);
Expected<ProcRef> liftAlloc(const Cursor &Alloc, unsigned Levels = 1);
Expected<ProcRef> bindExpr(const Cursor &Stmt, const std::string &ExprPat,
                           const std::string &NewName);
Expected<ProcRef> addGuard(const Cursor &Stmt, const std::string &CondSrc);
Expected<ProcRef> configWriteAt(const Cursor &Stmt, const ir::ConfigRef &Cfg,
                                const std::string &Field,
                                const std::string &ValueSrc);
Expected<ProcRef> bindConfig(const Cursor &Stmt, const std::string &ExprPat,
                             const ir::ConfigRef &Cfg,
                             const std::string &Field);
Expected<ProcRef> stageMem(const Cursor &Stmts, const std::string &WindowSrc,
                           const std::string &NewName,
                           const std::string &Mem = "DRAM");
Expected<ProcRef> setMemory(const Cursor &Alloc, const std::string &Mem);
Expected<ProcRef> setPrecision(const Cursor &Alloc, ir::ScalarKind Precision);
Expected<ProcRef> inlineCall(const Cursor &Call);
Expected<ProcRef> callEqv(const Cursor &Call, const ProcRef &NewCallee);
Expected<ProcRef> replaceWith(const Cursor &Stmts, const ProcRef &Target);

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_CURSOR_H
