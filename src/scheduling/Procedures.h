//===- scheduling/Procedures.h - Composable scheduling procedures -*- C++ -*-=//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named, composable scheduling procedures (Exo 2, "Growing a Scheduling
/// Language"): mid-level rewrites built purely from the primitive
/// operators, with first-class cursors (Cursor.h) doing the internal
/// addressing. A procedure is an ordinary function from procedure to
/// procedure — it adds no rewriting power and no trusted code; every step
/// inside it is one of the safety-checked primitives, so the first
/// failing primitive aborts the whole procedure with its structured
/// error.
///
/// Because a primitive's pattern spelling runs its cursor form, replacing
/// a hand-written primitive sequence in an app with the equivalent
/// procedure call leaves the generated C byte-identical. The apps (Sgemm, GemminiMatmul, AmxMatmul), the
/// KernelSuite, and the tuner's SearchSpace all schedule through these.
///
/// hoistStmtToTop (Schedule.h) predates this header but is the same
/// species: a named composite built from moveStmtUp / fissionAfter /
/// removeLoop. It stays declared there for compatibility; treat it as a
/// member of this family.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_PROCEDURES_H
#define EXO_SCHEDULING_PROCEDURES_H

#include "scheduling/Cursor.h"

namespace exo {
namespace scheduling {

/// tile2D: tiles a 2-deep loop nest \p LoopI { LoopJ { ... } } by
/// TileI x TileJ and sinks the two intra-tile loops below whatever single
/// loop follows them (the classic register/scratchpad tiling prologue of
/// every matmul in this repo):
///
///   for i: for j: for k: s
///     ==>  for io: for jo: for ko: for ii: for ji: s'   (k split too)
///
/// Exactly the primitive sequence
///   split I; split J; reorder InnerI; reorder InnerJ; reorder InnerI;
///   simplify
/// so a schedule migrated from that spelling produces byte-identical C.
/// \p LoopI accepts a bare iterator name or a full loop pattern
/// (Schedule::loopPattern rules); intermediate loops are re-found by
/// cursor navigation + forwarding, never by pattern.
Expected<ProcRef> tile2D(const ProcRef &P, const std::string &LoopI,
                         int64_t TileI, int64_t TileJ,
                         const std::string &OuterI, const std::string &InnerI,
                         const std::string &OuterJ, const std::string &InnerJ,
                         SplitTail Tail = SplitTail::Perfect);

/// Cursor entry point: \p LoopI addresses the outer loop directly.
Expected<ProcRef> tile2D(const Cursor &LoopI, int64_t TileI, int64_t TileJ,
                         const std::string &OuterI, const std::string &InnerI,
                         const std::string &OuterJ, const std::string &InnerJ,
                         SplitTail Tail = SplitTail::Perfect);

/// stageAndVectorize: stages the window \p WindowSrc of a buffer into a
/// new \p NewName buffer in \p Mem around the selected statement(s), then
/// splits the *innermost copy-in loop* — found by navigating into the
/// staged region, not by pattern — by \p Lanes into OuterName/InnerName
/// (Perfect), shaping the copy stream into lane-sized chunks ready for a
/// replaceWith against a vector-load instruction. Equivalent to the
/// hand-written "stage; split <copy iterator>" pair, byte-identically.
Expected<ProcRef> stageAndVectorize(const ProcRef &P,
                                    const std::string &StmtPat,
                                    const std::string &WindowSrc,
                                    const std::string &NewName,
                                    const std::string &Mem, int64_t Lanes,
                                    const std::string &OuterName,
                                    const std::string &InnerName);

/// Cursor entry point; the selection width is taken from the cursor.
Expected<ProcRef> stageAndVectorize(const Cursor &Stmts,
                                    const std::string &WindowSrc,
                                    const std::string &NewName,
                                    const std::string &Mem, int64_t Lanes,
                                    const std::string &OuterName,
                                    const std::string &InnerName);

/// autoDivide: splits a constant-trip-count loop by the *largest* factor
/// <= \p MaxFactor that divides the trip count evenly (SplitTail::Perfect,
/// so the divisibility is also proved, not just computed). Errors when the
/// loop bound is not a compile-time constant or no factor >= 2 divides it.
/// The autotuner uses this to tile loops without hard-coding factors per
/// problem size.
Expected<ProcRef> autoDivide(const ProcRef &P, const std::string &LoopPat,
                             int64_t MaxFactor, const std::string &OuterName,
                             const std::string &InnerName);

/// Cursor entry point.
Expected<ProcRef> autoDivide(const Cursor &Loop, int64_t MaxFactor,
                             const std::string &OuterName,
                             const std::string &InnerName);

/// cacheBlock: the cache-blocking level above a register-blocked matmul
/// micro-kernel (BLIS-style packed-B panels, after "Tackling the Matrix
/// Multiplication Micro-kernel Generation with Exo"). \p RowLoop selects
/// the row-tile loop of a tile2D-shaped nest whose body reads \p Buf as
/// Buf[k, ColTile * jo + ...], ColTile being the trip count of the
/// intra-tile column loop ji:
///
///   for io: for jo: for k: for ii: for ji: body
///     ==>  for jo: for ko:
///            Panel : f32[KC, ColTile]        (copy-in of Buf's window)
///            for io: for ki: for ii: for ji:
///              body[Buf[KC*ko + ki, ColTile*jo + ji] -> Panel[ki, ji]]
///
/// Exactly: autoDivide(k, MaxKC) into OuterK/InnerK (KC = the largest
/// divisor <= MaxKC; an error if k has none in [2, MaxKC]); reorder io
/// twice, lifting the column-tile loop and then OuterK above the row-tile
/// loop (BLIS's jc/pc/ic order); then stageAndVectorize of the
/// KC x ColTile window of \p Buf into a DRAM buffer \p Panel around the
/// row-tile loop, its copy-in lane loop split by 16 into Panel + "v" /
/// Panel + "l". Every row tile then streams the same contiguous panel,
/// and later stages (e.g. a vector-register row) read Panel[InnerK, ...]
/// instead of Buf.
Expected<ProcRef> cacheBlock(const ProcRef &P, const std::string &RowLoop,
                             const std::string &Buf, int64_t MaxKC,
                             const std::string &OuterK,
                             const std::string &InnerK,
                             const std::string &Panel);

/// Cursor entry point: \p RowLoop addresses the row-tile loop directly.
Expected<ProcRef> cacheBlock(const Cursor &RowLoop, const std::string &Buf,
                             int64_t MaxKC, const std::string &OuterK,
                             const std::string &InnerK,
                             const std::string &Panel);

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_PROCEDURES_H
