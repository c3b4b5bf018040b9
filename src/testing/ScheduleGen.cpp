//===- testing/ScheduleGen.cpp - Random schedule driver ------------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "testing/ScheduleGen.h"

#include "analysis/EffectSnapshot.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "ir/Builder.h"
#include "ir/StructuralEq.h"
#include "scheduling/Procedures.h"
#include "smt/Solver.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <functional>
#include <optional>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;
using namespace exo::scheduling;

//===----------------------------------------------------------------------===//
// Trace serialization
//===----------------------------------------------------------------------===//

std::string ScheduleStep::str() const {
  std::string S = Op;
  for (const std::string &A : Args) {
    S += '|';
    S += A;
  }
  return S;
}

Expected<ScheduleStep> ScheduleStep::parse(const std::string &Line) {
  ScheduleStep S;
  size_t Pos = 0;
  bool First = true;
  while (Pos <= Line.size()) {
    size_t Bar = Line.find('|', Pos);
    std::string Tok = Bar == std::string::npos ? Line.substr(Pos)
                                               : Line.substr(Pos, Bar - Pos);
    if (First) {
      S.Op = Tok;
      First = false;
    } else {
      S.Args.push_back(Tok);
    }
    if (Bar == std::string::npos)
      break;
    Pos = Bar + 1;
  }
  if (S.Op.empty())
    return makeError(Error::Kind::Parse, "empty schedule-trace line");
  return S;
}

//===----------------------------------------------------------------------===//
// Step application
//===----------------------------------------------------------------------===//

namespace {

Expected<int64_t> parseNum(const std::string &S) {
  if (S.empty())
    return makeError(Error::Kind::Parse, "bad number in trace: ''");
  size_t Pos = S[0] == '-' ? 1 : 0;
  if (Pos == S.size())
    return makeError(Error::Kind::Parse, "bad number in trace: '" + S + "'");
  int64_t V = 0;
  for (; Pos < S.size(); ++Pos) {
    if (S[Pos] < '0' || S[Pos] > '9')
      return makeError(Error::Kind::Parse, "bad number in trace: '" + S + "'");
    V = V * 10 + (S[Pos] - '0');
  }
  return S[0] == '-' ? -V : V;
}

Expected<ScalarKind> parseKind(const std::string &S) {
  if (S == "f32")
    return ScalarKind::F32;
  if (S == "f64")
    return ScalarKind::F64;
  if (S == "i8")
    return ScalarKind::I8;
  if (S == "i16")
    return ScalarKind::I16;
  if (S == "i32")
    return ScalarKind::I32;
  return makeError(Error::Kind::Parse, "bad precision in trace: '" + S + "'");
}

/// Resolves "gemmini:<name>" / "avx512:<name>" instruction references for
/// replace steps; the libraries register their memories as a side effect.
Expected<ProcRef> resolveInstr(const std::string &Ref) {
  const auto &G = hw::gemmini::gemminiLib();
  const auto &V = hw::avx512::avx512Lib();
  struct Entry {
    const char *Name;
    const ProcRef &P;
  };
  const Entry Table[] = {
      {"gemmini:ld_data", G.LdData},       {"gemmini:ld_data2", G.LdData2},
      {"gemmini:zero_acc", G.ZeroAcc},     {"gemmini:matmul16", G.Matmul16},
      {"gemmini:st_acc", G.StAcc},         {"gemmini:st_acc_relu", G.StAccRelu},
      {"gemmini:config_ld1", G.ConfigLd1}, {"gemmini:config_ld2", G.ConfigLd2},
      {"gemmini:config_st", G.ConfigSt},
      {"avx512:loadu_ps", V.LoaduPs},      {"avx512:storeu_ps", V.StoreuPs},
      {"avx512:zero_ps", V.ZeroPs},        {"avx512:fmadd_ps", V.FmaddPs},
      {"avx512:accum_ps", V.AccumPs},      {"avx512:relu_ps", V.ReluPs},
  };
  for (const Entry &E : Table)
    if (Ref == E.Name)
      return E.P;
  return makeError(Error::Kind::Parse, "unknown instruction ref '" + Ref + "'");
}

/// Resolves "gemmini:<name>" configuration-struct references for
/// config_write steps.
Expected<ConfigRef> resolveConfig(const std::string &Ref) {
  const auto &G = hw::gemmini::gemminiLib();
  struct Entry {
    const char *Name;
    const ConfigRef &C;
  };
  const Entry Table[] = {
      {"gemmini:cfg_ld1", G.CfgLd1},
      {"gemmini:cfg_ld2", G.CfgLd2},
      {"gemmini:cfg_st", G.CfgSt},
  };
  for (const Entry &E : Table)
    if (Ref == E.Name)
      return E.C;
  return makeError(Error::Kind::Parse, "unknown config ref '" + Ref + "'");
}

/// TEST-ONLY unsound rewrite: shrinks the Nth loop (pre-order, counted
/// among loops whose iterator is named \p Iter) to skip its last
/// iteration — deliberately with no safety check. Exists so the
/// acceptance test can prove the triple oracle catches a semantics break.
Expected<ProcRef> unsoundDropIter(const ProcRef &P, const std::string &Iter,
                                  int64_t Nth) {
  int64_t Remaining = Nth;
  bool Done = false;
  // Mirrors the pre-order of Pattern.cpp's searchBlock.
  std::function<Block(const Block &)> rewrite = [&](const Block &B) -> Block {
    Block Out;
    for (const StmtRef &S : B) {
      if (Done) {
        Out.push_back(S);
        continue;
      }
      if (S->kind() == StmtKind::For && S->name().name() == Iter) {
        if (Remaining == 0) {
          Done = true;
          Out.push_back(withForParts(S, S->lo(),
                                     eSub(S->hi(), litInt(1)), S->body()));
          continue;
        }
        --Remaining;
      }
      StmtRef New = S;
      if (!S->body().empty() || !S->orelse().empty()) {
        Block NewBody = S->body().empty() ? Block{} : rewrite(S->body());
        Block NewOrelse = S->orelse().empty() ? Block{} : rewrite(S->orelse());
        if (S->kind() == StmtKind::For)
          New = withForParts(S, S->lo(), S->hi(), std::move(NewBody));
        else if (S->kind() == StmtKind::If)
          New = withIfParts(S, S->rhs(), std::move(NewBody),
                            std::move(NewOrelse));
      }
      Out.push_back(New);
    }
    return Out;
  };
  Block NewBody = rewrite(P->body());
  if (!Done)
    return makeError(Error::Kind::Pattern,
                     "unsound_drop_iter: no loop '" + Iter + "' #" +
                         std::to_string(Nth));
  auto C = P->clone();
  C->setBody(std::move(NewBody));
  C->setProvenance(P, {});
  return ProcRef(std::move(C));
}

/// The argument kinds of the trace grammar. Loop and Stmt arguments are
/// targets: a plain pattern (a loop target may also be a bare iterator
/// name, "i" or "i #1"), or "<pattern> @nav[.nav...]", which applies
/// structural navigation steps (body, orelse, next, prev, parent) to the
/// pattern's match, so traces can address statements no unambiguous
/// pattern string exists for — e.g. the inner of two same-named loops:
/// "for t in _: _ @body".
enum class ArgKind {
  Loop,
  Stmt,
  Int,
  Name,
  Tail,
  Instr,
  Config,
  Mem,
  Precision
};

/// One parsed argument; the member its kind names is set.
struct ArgVal {
  Cursor Target;
  int64_t Int = 0;
  std::string Str; ///< Name, Mem
  SplitTail Tail = SplitTail::Guard;
  ProcRef Instr;
  ConfigRef Config;
  ScalarKind Precision = ScalarKind::R;
};
using ArgVals = std::vector<ArgVal>;

/// One trace op: its name, its argument schema, the index of its numeric
/// knob (the argument trace mutation perturbs; -1 for none), and how it
/// applies through the scheduling layer's cursor forms.
struct OpSpec {
  const char *Name;
  std::vector<ArgKind> Kinds;
  int Knob;
  Expected<ProcRef> (*Apply)(const ProcRef &P, const ArgVals &A);
};

/// A target widened to \p Count statements (stage and replace steps).
Expected<Cursor> widened(const Cursor &C, int64_t Count) {
  if (Count < 1)
    return makeError(Error::Kind::Parse, "bad statement count in trace: " +
                                             std::to_string(Count));
  return C.expand(unsigned(Count - 1));
}

using K = ArgKind;
const OpSpec OpTable[] = {
    {"split", {K::Loop, K::Int, K::Name, K::Name, K::Tail}, 1,
     [](const ProcRef &, const ArgVals &A) {
       return splitLoop(A[0].Target, A[1].Int, A[2].Str, A[3].Str, A[4].Tail);
     }},
    {"reorder", {K::Loop}, -1,
     [](const ProcRef &, const ArgVals &A) {
       return reorderLoops(A[0].Target);
     }},
    {"unroll", {K::Loop}, -1,
     [](const ProcRef &, const ArgVals &A) { return unrollLoop(A[0].Target); }},
    {"partition", {K::Loop, K::Int}, 1,
     [](const ProcRef &, const ArgVals &A) {
       return partitionLoop(A[0].Target, A[1].Int);
     }},
    {"remove", {K::Loop}, -1,
     [](const ProcRef &, const ArgVals &A) { return removeLoop(A[0].Target); }},
    {"fuse", {K::Loop}, -1,
     [](const ProcRef &, const ArgVals &A) { return fuseLoops(A[0].Target); }},
    {"lift_if", {K::Stmt}, -1,
     [](const ProcRef &, const ArgVals &A) { return liftIf(A[0].Target); }},
    {"reorder_stmts", {K::Stmt}, -1,
     [](const ProcRef &, const ArgVals &A) {
       return reorderStmts(A[0].Target);
     }},
    {"move_up", {K::Stmt}, -1,
     [](const ProcRef &, const ArgVals &A) { return moveStmtUp(A[0].Target); }},
    {"fission", {K::Stmt}, -1,
     [](const ProcRef &, const ArgVals &A) {
       return fissionAfter(A[0].Target);
     }},
    {"lift_alloc", {K::Stmt, K::Int}, 1,
     [](const ProcRef &, const ArgVals &A) {
       return liftAlloc(A[0].Target, unsigned(A[1].Int));
     }},
    {"stage", {K::Stmt, K::Int, K::Name, K::Name, K::Mem}, -1,
     [](const ProcRef &, const ArgVals &A) -> Expected<ProcRef> {
       auto W = widened(A[0].Target, A[1].Int);
       if (!W)
         return W.error();
       return stageMem(*W, A[2].Str, A[3].Str, A[4].Str);
     }},
    {"set_memory", {K::Name, K::Mem}, -1,
     [](const ProcRef &P, const ArgVals &A) {
       return setMemory(P, A[0].Str, A[1].Str);
     }},
    {"set_precision", {K::Name, K::Precision}, -1,
     [](const ProcRef &P, const ArgVals &A) {
       return setPrecision(P, A[0].Str, A[1].Precision);
     }},
    {"replace", {K::Stmt, K::Int, K::Instr}, -1,
     [](const ProcRef &, const ArgVals &A) -> Expected<ProcRef> {
       auto W = widened(A[0].Target, A[1].Int);
       if (!W)
         return W.error();
       return replaceWith(*W, A[2].Instr);
     }},
    {"config_write", {K::Stmt, K::Config, K::Name, K::Name}, -1,
     [](const ProcRef &, const ArgVals &A) {
       return configWriteAt(A[0].Target, A[1].Config, A[2].Str, A[3].Str);
     }},
    {"hoist", {K::Stmt}, -1,
     [](const ProcRef &, const ArgVals &A) {
       return hoistStmtToTop(A[0].Target);
     }},
    // Composable named procedures (scheduling/Procedures.h) as single
    // steps, so ScheduleGen traces and tuner skeletons speak the same
    // vocabulary the apps do.
    {"tile2d",
     {K::Loop, K::Int, K::Int, K::Name, K::Name, K::Name, K::Name, K::Tail},
     1,
     [](const ProcRef &, const ArgVals &A) {
       return tile2D(A[0].Target, A[1].Int, A[2].Int, A[3].Str, A[4].Str,
                     A[5].Str, A[6].Str, A[7].Tail);
     }},
    {"auto_divide", {K::Loop, K::Int, K::Name, K::Name}, 1,
     [](const ProcRef &, const ArgVals &A) {
       return autoDivide(A[0].Target, A[1].Int, A[2].Str, A[3].Str);
     }},
    {"stage_vec",
     {K::Stmt, K::Name, K::Name, K::Mem, K::Int, K::Name, K::Name},
     -1,
     [](const ProcRef &, const ArgVals &A) {
       return stageAndVectorize(A[0].Target, A[1].Str, A[2].Str, A[3].Str,
                                A[4].Int, A[5].Str, A[6].Str);
     }},
    {"simplify", {}, -1,
     [](const ProcRef &P, const ArgVals &) { return simplify(P); }},
    {"delete_pass", {}, -1,
     [](const ProcRef &P, const ArgVals &) { return deletePass(P); }},
    {"unsound_drop_iter", {K::Name, K::Int}, -1,
     [](const ProcRef &P, const ArgVals &A) {
       return unsoundDropIter(P, A[0].Str, A[1].Int);
     }},
};

const OpSpec *findOp(const std::string &Name) {
  for (const OpSpec &Op : OpTable)
    if (Name == Op.Name)
      return &Op;
  return nullptr;
}

/// Resolves a target argument to a cursor in \p P: its pattern is matched
/// once, then any navigation steps walk from the match.
Expected<Cursor> resolveTarget(const ProcRef &P, const std::string &Arg,
                               bool LoopArg) {
  size_t At = Arg.rfind(" @");
  std::string Pat =
      At == std::string::npos ? Arg : trimString(Arg.substr(0, At));
  if (LoopArg)
    Pat = Schedule::loopPattern(Pat);
  auto Found = Cursor::find(P, Pat);
  if (!Found || At == std::string::npos)
    return Found;
  Cursor Cur = *Found;
  std::string Nav = Arg.substr(At + 2);
  size_t Pos = 0;
  for (;;) {
    size_t Dot = Nav.find('.', Pos);
    std::string Step = trimString(Dot == std::string::npos
                                      ? Nav.substr(Pos)
                                      : Nav.substr(Pos, Dot - Pos));
    Expected<Cursor> Next = makeError(Error::Kind::Parse, "");
    if (Step == "body")
      Next = Cur.body();
    else if (Step == "orelse")
      Next = Cur.orelse();
    else if (Step == "next")
      Next = Cur.next();
    else if (Step == "prev")
      Next = Cur.prev();
    else if (Step == "parent")
      Next = Cur.parent();
    else
      return makeError(Error::Kind::Parse,
                       "unknown cursor navigation '" + Step + "' in '" +
                           Arg + "'");
    if (!Next)
      return Next.error();
    Cur = *Next;
    if (Dot == std::string::npos)
      break;
    Pos = Dot + 1;
  }
  return Cur;
}

/// Parses \p S's arguments against \p Op's schema. Values parse first,
/// left to right; the target resolves last, once.
Expected<ArgVals> parseArgs(const ProcRef &P, const OpSpec &Op,
                            const ScheduleStep &S) {
  if (S.Args.size() != Op.Kinds.size())
    return makeError(Error::Kind::Parse,
                     "trace op '" + S.Op + "' expects " +
                         std::to_string(Op.Kinds.size()) + " args, got " +
                         std::to_string(S.Args.size()));
  ArgVals V(S.Args.size());
  for (size_t I = 0; I < S.Args.size(); ++I) {
    const std::string &A = S.Args[I];
    switch (Op.Kinds[I]) {
    case K::Loop:
    case K::Stmt:
      break;
    case K::Int: {
      auto N = parseNum(A);
      if (!N)
        return N.error();
      V[I].Int = *N;
      break;
    }
    case K::Mem:
      // Touch the library singletons so their memories are registered
      // before codegen meets the annotation.
      if (A == "AVX512")
        (void)hw::avx512::avx512Lib();
      if (A == "GEMM_SCRATCH" || A == "GEMM_ACC")
        (void)hw::gemmini::gemminiLib();
      [[fallthrough]];
    case K::Name:
      V[I].Str = A;
      break;
    case K::Tail:
      V[I].Tail = A == "cut"       ? SplitTail::Cut
                  : A == "perfect" ? SplitTail::Perfect
                                   : SplitTail::Guard;
      break;
    case K::Instr: {
      auto R = resolveInstr(A);
      if (!R)
        return R.error();
      V[I].Instr = *R;
      break;
    }
    case K::Config: {
      auto R = resolveConfig(A);
      if (!R)
        return R.error();
      V[I].Config = *R;
      break;
    }
    case K::Precision: {
      auto R = parseKind(A);
      if (!R)
        return R.error();
      V[I].Precision = *R;
      break;
    }
    }
  }
  for (size_t I = 0; I < S.Args.size(); ++I) {
    if (Op.Kinds[I] != K::Loop && Op.Kinds[I] != K::Stmt)
      continue;
    auto C = resolveTarget(P, S.Args[I], Op.Kinds[I] == K::Loop);
    if (!C)
      return C.error();
    V[I].Target = *C;
  }
  return V;
}

} // namespace

Expected<ProcRef> exo::testing::applyStep(const ProcRef &P,
                                          const ScheduleStep &S) {
  const OpSpec *Op = findOp(S.Op);
  if (!Op)
    return makeError(Error::Kind::Parse, "unknown trace op '" + S.Op + "'");
  auto A = parseArgs(P, *Op, S);
  if (!A)
    return A.error();
  return Op->Apply(P, *A);
}

Expected<ProcRef> exo::testing::applyTrace(
    const ProcRef &P, const std::vector<ScheduleStep> &Trace) {
  ProcRef Cur = P;
  for (const ScheduleStep &S : Trace) {
    auto Next = applyStep(Cur, S);
    if (!Next)
      return makeError(Next.error().kind(),
                       "trace step '" + S.str() +
                           "' failed: " + Next.error().message());
    Cur = *Next;
  }
  return Cur;
}

LenientApplyResult
exo::testing::applyTraceLenient(const ProcRef &P,
                                const std::vector<ScheduleStep> &Trace) {
  LenientApplyResult Out;
  Out.Final = P;
  for (const ScheduleStep &S : Trace) {
    auto Next = applyStep(Out.Final, S);
    if (!Next) {
      ++Out.Rejected;
      continue;
    }
    Out.Final = *Next;
    Out.Applied.push_back(S);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Random proposal
//===----------------------------------------------------------------------===//

namespace {

struct LoopTgt {
  std::string Iter;
  unsigned Ord = 0; ///< among loops with this iterator name, pre-order
  int64_t ConstLo = -1, ConstHi = -1; ///< -1 when symbolic
  unsigned Depth = 0;
  /// Const trip count of the sole perfectly-nested child loop (-1: no
  /// single-For child or symbolic bounds) and whether that child itself
  /// wraps a single For — the shape tile2d needs (it sinks the intra-tile
  /// pair below the third loop).
  int64_t ChildHi = -1;
  bool HasGrandLoop = false;
};

struct WriteTgt {
  std::string Buf;
  bool Reduce = false;
  bool Scalar = false;
  unsigned Ord = 0; ///< among pattern-equivalent statements, pre-order
};

struct AllocTgt {
  std::string Name;
  unsigned Depth = 0;
  bool IsR = false;
};

struct BufTgt {
  std::string Name;
  std::vector<int64_t> Dims;
};

struct Targets {
  std::vector<LoopTgt> Loops;
  std::vector<WriteTgt> Writes;
  std::vector<AllocTgt> Allocs;
  std::vector<BufTgt> StageableBufs; ///< constant-extent tensors
  unsigned NumIfs = 0;
  std::vector<ScalarKind> ConcreteKinds; ///< distinct, discovery order
};

void noteKind(Targets &T, ScalarKind K) {
  if (K == ScalarKind::R || !isDataScalar(K))
    return;
  if (std::find(T.ConcreteKinds.begin(), T.ConcreteKinds.end(), K) ==
      T.ConcreteKinds.end())
    T.ConcreteKinds.push_back(K);
}

void noteBuf(Targets &T, const std::string &Name, const Type &Ty) {
  if (!Ty.isTensor() || Ty.isWindow())
    return;
  BufTgt B;
  B.Name = Name;
  for (const ExprRef &D : Ty.dims()) {
    if (D->kind() != ExprKind::Const)
      return;
    B.Dims.push_back(D->intValue());
  }
  T.StageableBufs.push_back(std::move(B));
}

void collectBlock(const Block &B, unsigned Depth, Targets &T,
                  std::map<std::string, unsigned> &LoopOrds,
                  std::map<std::string, unsigned> &AssignOrds,
                  std::map<std::string, unsigned> &ReduceOrds) {
  for (const StmtRef &S : B) {
    switch (S->kind()) {
    case StmtKind::For: {
      LoopTgt L;
      L.Iter = S->name().name();
      L.Ord = LoopOrds[L.Iter]++;
      L.Depth = Depth;
      if (S->lo()->kind() == ExprKind::Const)
        L.ConstLo = S->lo()->intValue();
      if (S->hi()->kind() == ExprKind::Const)
        L.ConstHi = S->hi()->intValue();
      if (S->body().size() == 1 && S->body()[0]->kind() == StmtKind::For) {
        const StmtRef &C = S->body()[0];
        if (C->lo()->kind() == ExprKind::Const && C->lo()->intValue() == 0 &&
            C->hi()->kind() == ExprKind::Const)
          L.ChildHi = C->hi()->intValue();
        L.HasGrandLoop =
            C->body().size() == 1 && C->body()[0]->kind() == StmtKind::For;
      }
      T.Loops.push_back(std::move(L));
      break;
    }
    case StmtKind::If:
      ++T.NumIfs;
      break;
    case StmtKind::Assign: {
      WriteTgt W;
      W.Buf = S->name().name();
      W.Scalar = S->indices().empty();
      W.Ord = AssignOrds[W.Buf]++;
      T.Writes.push_back(std::move(W));
      break;
    }
    case StmtKind::Reduce: {
      WriteTgt W;
      W.Buf = S->name().name();
      W.Reduce = true;
      W.Scalar = S->indices().empty();
      W.Ord = ReduceOrds[W.Buf]++;
      T.Writes.push_back(std::move(W));
      break;
    }
    case StmtKind::WindowStmt:
      // The Assign pattern "w = _" also matches window bindings, so they
      // consume an ordinal in the same counter (see Pattern.cpp).
      AssignOrds[S->name().name()]++;
      break;
    case StmtKind::Alloc: {
      AllocTgt A;
      A.Name = S->name().name();
      A.Depth = Depth;
      A.IsR = S->allocType().elem() == ScalarKind::R;
      noteKind(T, S->allocType().elem());
      noteBuf(T, A.Name, S->allocType());
      T.Allocs.push_back(std::move(A));
      break;
    }
    default:
      break;
    }
    if (!S->body().empty())
      collectBlock(S->body(), Depth + 1, T, LoopOrds, AssignOrds, ReduceOrds);
    if (!S->orelse().empty())
      collectBlock(S->orelse(), Depth + 1, T, LoopOrds, AssignOrds,
                   ReduceOrds);
  }
}

Targets collectTargets(const ProcRef &P) {
  Targets T;
  std::map<std::string, unsigned> LoopOrds, AssignOrds, ReduceOrds;
  for (const FnArg &A : P->args()) {
    noteKind(T, A.Ty.elem());
    noteBuf(T, A.Name.name(), A.Ty);
  }
  collectBlock(P->body(), 0, T, LoopOrds, AssignOrds, ReduceOrds);
  return T;
}

std::string loopRef(const LoopTgt &L) {
  if (L.Ord == 0)
    return L.Iter;
  return L.Iter + " #" + std::to_string(L.Ord);
}

std::string writePat(const WriteTgt &W) {
  std::string P = W.Scalar ? W.Buf : W.Buf + "[_]";
  P += W.Reduce ? " += _" : " = _";
  if (W.Ord)
    P += " #" + std::to_string(W.Ord);
  return P;
}

/// Proposes one random step against the current procedure, or nullopt
/// when the roll found no suitable target.
std::optional<ScheduleStep> propose(const Targets &T, Rng &R,
                                    unsigned &NameCounter) {
  auto pickLoop = [&]() -> const LoopTgt * {
    return T.Loops.empty() ? nullptr : &T.Loops[R.next() % T.Loops.size()];
  };
  auto pickWrite = [&]() -> const WriteTgt * {
    return T.Writes.empty() ? nullptr : &T.Writes[R.next() % T.Writes.size()];
  };

  switch (R.range(0, 17)) {
  case 0:
  case 1: { // split
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    int64_t Factor = R.range(2, 4);
    static const char *const Tails[] = {"guard", "cut", "perfect"};
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{"split",
                        {loopRef(*L), std::to_string(Factor), Base + "o",
                         Base + "i", Tails[R.next() % 3]}};
  }
  case 2:
  case 3: { // reorder
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    return ScheduleStep{"reorder", {loopRef(*L)}};
  }
  case 4: { // unroll — small constant-extent loops only (bounded blowup)
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo >= 0 && L.ConstHi >= 0 && L.ConstHi - L.ConstLo <= 6)
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    return ScheduleStep{"unroll", {loopRef(*C[R.next() % C.size()])}};
  }
  case 5: { // partition
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    int64_t Span = (L->ConstLo >= 0 && L->ConstHi > L->ConstLo)
                       ? L->ConstHi - L->ConstLo
                       : 4;
    return ScheduleStep{"partition",
                        {loopRef(*L), std::to_string(R.range(1, Span))}};
  }
  case 6: { // remove / fuse
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    return ScheduleStep{R.chance(1, 2) ? "remove" : "fuse", {loopRef(*L)}};
  }
  case 7: { // lift_if
    if (!T.NumIfs)
      return std::nullopt;
    unsigned K = unsigned(R.next() % T.NumIfs);
    std::string Pat = "if _: _";
    if (K)
      Pat += " #" + std::to_string(K);
    return ScheduleStep{"lift_if", {Pat}};
  }
  case 8: { // reorder_stmts / move_up
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    return ScheduleStep{R.chance(1, 2) ? "reorder_stmts" : "move_up",
                        {writePat(*W)}};
  }
  case 9: { // fission
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    return ScheduleStep{"fission", {writePat(*W)}};
  }
  case 10: { // lift_alloc
    std::vector<const AllocTgt *> C;
    for (const AllocTgt &A : T.Allocs)
      if (A.Depth > 0)
        C.push_back(&A);
    if (C.empty())
      return std::nullopt;
    const AllocTgt *A = C[R.next() % C.size()];
    unsigned Levels = unsigned(R.range(1, int64_t(A->Depth)));
    return ScheduleStep{"lift_alloc",
                        {A->Name + " : _", std::to_string(Levels)}};
  }
  case 11: { // stage a whole buffer around one write
    const WriteTgt *W = pickWrite();
    if (!W || T.StageableBufs.empty())
      return std::nullopt;
    const BufTgt &Buf = T.StageableBufs[R.next() % T.StageableBufs.size()];
    std::string Win = Buf.Name + "[";
    for (size_t D = 0; D < Buf.Dims.size(); ++D) {
      if (D)
        Win += ", ";
      Win += "0:" + std::to_string(Buf.Dims[D]);
    }
    Win += "]";
    return ScheduleStep{"stage",
                        {writePat(*W), "1", Win,
                         "stg" + std::to_string(NameCounter++), "DRAM"}};
  }
  case 12: { // set_memory (addressable memories only)
    if (T.Allocs.empty())
      return std::nullopt;
    const AllocTgt &A = T.Allocs[R.next() % T.Allocs.size()];
    return ScheduleStep{"set_memory",
                        {A.Name, R.chance(1, 2) ? "AVX512" : "DRAM"}};
  }
  case 13: { // set_precision — only to the kind already concrete in the
             // program (or any kind if pure-R), so the backend precision
             // check stays satisfiable
    std::vector<const AllocTgt *> C;
    for (const AllocTgt &A : T.Allocs)
      if (A.IsR)
        C.push_back(&A);
    if (C.empty() || T.ConcreteKinds.size() > 1)
      return std::nullopt;
    const char *K = T.ConcreteKinds.size() == 1
                        ? scalarKindName(T.ConcreteKinds[0])
                        : (R.chance(1, 2) ? "f32" : "f64");
    return ScheduleStep{"set_precision", {C[R.next() % C.size()]->Name, K}};
  }
  case 14: { // replace with an @instr (unification nearly always rejects
             // random code; exercising the rejection path is the point)
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    static const char *const Instrs[] = {
        "avx512:zero_ps",  "avx512:loadu_ps", "avx512:storeu_ps",
        "avx512:fmadd_ps", "avx512:accum_ps", "avx512:relu_ps",
        "gemmini:zero_acc"};
    return ScheduleStep{
        "replace",
        {writePat(*W), "1",
         Instrs[R.next() % (sizeof(Instrs) / sizeof(Instrs[0]))]}};
  }
  case 15: { // auto_divide — a named procedure as one trace step
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo == 0 && L.ConstHi >= 2)
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    const LoopTgt *L = C[R.next() % C.size()];
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{"auto_divide",
                        {loopRef(*L), std::to_string(R.range(2, 8)),
                         Base + "o", Base + "i"}};
  }
  case 16: { // tile2d — the composite tiling procedure as one trace step.
    // The procedure needs a matmul-shaped nest (perfect I -> J -> K chain;
    // the last reorders sink the tile pair below K) and, with the perfect
    // tail, factors dividing both trip counts. Target those loops; the
    // safety checks still reject some (a body statement in the way, an
    // effect conflict) — exercising that path is part of the point.
    auto divisorOf = [](int64_t N) -> int64_t {
      for (int64_t K = 4; K >= 2; --K)
        if (N % K == 0)
          return K;
      return 0;
    };
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo == 0 && L.ConstHi >= 2 && L.HasGrandLoop &&
          divisorOf(L.ConstHi) && L.ChildHi >= 2 && divisorOf(L.ChildHi))
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    const LoopTgt *L = C[R.next() % C.size()];
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{"tile2d",
                        {loopRef(*L), std::to_string(divisorOf(L->ConstHi)),
                         std::to_string(divisorOf(L->ChildHi)), Base + "io",
                         Base + "ii", Base + "jo", Base + "ji", "perfect"}};
  }
  default:
    return ScheduleStep{"simplify", {}};
  }
}

/// The renaming-invariant slice of the solver profile. The two
/// differential runs mint different fresh-variable ids (the incremental
/// run skips stabilization probes, so it mints fewer), which legitimately
/// perturbs NumLiterals — Cooper's variable order breaks ties by id — and,
/// through it, the budget-overflow breakdown. The counters kept here are
/// a function of the queries posed, not of variable numbering: NumQueries
/// is bumped before the query cache is consulted, SimplifyDecided is
/// decided on the structure of the (canonical) query, and the fast-path
/// counters on the effect sets alone.
struct QueryProfile {
  uint64_t NumQueries = 0;
  uint64_t SimplifyDecided = 0;
  uint64_t FastPathHits = 0;
  uint64_t FastPathMisses = 0;

  /// The profile of this thread's solver work since \p Base.
  static QueryProfile since(const smt::Solver::Stats &Base) {
    smt::Solver::Stats D = smt::solverThreadStats().since(Base);
    return {D.NumQueries, D.SimplifyDecided, D.FastPathHits,
            D.FastPathMisses};
  }
  bool operator==(const QueryProfile &) const = default;
  std::string str() const {
    return "queries=" + std::to_string(NumQueries) +
           " simplify_decided=" + std::to_string(SimplifyDecided) +
           " fastpath=" + std::to_string(FastPathHits) + "/" +
           std::to_string(FastPathMisses);
  }
};

/// Applies \p S once with full re-analysis and once against \p Snap,
/// records any divergence in \p Res, and returns the incremental result
/// (which carries the schedule chain forward).
Expected<ProcRef> applyStepDifferential(ScheduleResult &Res,
                                        const ScheduleStep &S,
                                        analysis::EffectSnapshot &Snap) {
  ++Res.DifferentialSteps;
  auto Note = [&](const std::string &What) {
    ++Res.DifferentialMismatches;
    Res.DifferentialNotes.push_back("step '" + S.str() + "': " + What);
  };

  smt::Solver::Stats FullBase = smt::solverThreadStats();
  Expected<ProcRef> Full = [&] {
    analysis::ScopedEffectSnapshot Off(nullptr);
    return applyStep(Res.Scheduled, S);
  }();
  QueryProfile FullDelta = QueryProfile::since(FullBase);

  smt::Solver::Stats IncBase = smt::solverThreadStats();
  Expected<ProcRef> Inc = [&] {
    analysis::ScopedEffectSnapshot On(&Snap);
    return applyStep(Res.Scheduled, S);
  }();
  QueryProfile IncDelta = QueryProfile::since(IncBase);

  if (bool(Full) != bool(Inc)) {
    Note(std::string("verdict differs: full ") +
         (Full ? "accepted" : "rejected") + ", incremental " +
         (Inc ? "accepted" : "rejected"));
  } else if (!Full) {
    if (Full.error().message() != Inc.error().message())
      Note("rejection differs: full '" + Full.error().message() +
           "' vs incremental '" + Inc.error().message() + "'");
  } else if (!alphaEquivalent((*Full)->body(), (*Inc)->body(), {})) {
    Note("results are not alpha-equivalent");
  }
  if (!(FullDelta == IncDelta))
    Note("query profile differs: full " + FullDelta.str() +
         " vs incremental " + IncDelta.str());
  return Inc;
}

//===----------------------------------------------------------------------===//
// Cursor-forwarding property check (--cursors)
//===----------------------------------------------------------------------===//

/// Every plantable cursor site in a block: each gap (including both block
/// ends) and each single-statement selection, recursing into bodies and
/// orelse blocks.
void enumerateSitesIn(const Block &B, std::vector<PathStep> &Path,
                      std::vector<StmtCursor> &Out) {
  for (unsigned I = 0; I <= B.size(); ++I) {
    StmtCursor Gap;
    Gap.Path = Path;
    Gap.Begin = Gap.End = I;
    Out.push_back(std::move(Gap));
  }
  for (unsigned I = 0; I < unsigned(B.size()); ++I) {
    StmtCursor Sel;
    Sel.Path = Path;
    Sel.Begin = I;
    Sel.End = I + 1;
    Out.push_back(std::move(Sel));
    if (!B[I]->body().empty()) {
      Path.push_back({I, PathStep::Branch::Body});
      enumerateSitesIn(B[I]->body(), Path, Out);
      Path.pop_back();
    }
    if (!B[I]->orelse().empty()) {
      Path.push_back({I, PathStep::Branch::Orelse});
      enumerateSitesIn(B[I]->orelse(), Path, Out);
      Path.pop_back();
    }
  }
}

std::vector<StmtCursor> enumerateCursorSites(const ProcRef &P) {
  std::vector<StmtCursor> Out;
  std::vector<PathStep> Path;
  enumerateSitesIn(P->body(), Path, Out);
  return Out;
}

/// Bounds-checked path walk (blockAt aborts on malformed cursors; the
/// property check must *report* them instead).
bool cursorInBounds(const ProcRef &P, const StmtCursor &C) {
  const Block *B = &P->body();
  for (const PathStep &St : C.Path) {
    if (St.Index >= B->size())
      return false;
    const StmtRef &S = (*B)[St.Index];
    B = St.Into == PathStep::Branch::Body ? &S->body() : &S->orelse();
  }
  return C.Begin <= C.End && C.End <= B->size();
}

/// The forwarding contract, checked per accepted step: plant up to
/// \p PerStep random cursors (gaps and selections, sampled without
/// replacement) on the pre-rewrite procedure and forward each across the
/// rewrite. Unchanged/shifted cursors must resolve to node-identical
/// statements, rebuilt cursors must land in-bounds, and invalidations
/// must carry a non-empty reason.
void checkCursorForwarding(ScheduleResult &Res, const ProcRef &Before,
                           const ProcRef &After, const ScheduleStep &S,
                           Rng &R, unsigned PerStep) {
  std::vector<StmtCursor> Sites = enumerateCursorSites(Before);
  for (unsigned I = 0; I < PerStep && !Sites.empty(); ++I) {
    size_t Pick = R.next() % Sites.size();
    StmtCursor Site = Sites[Pick];
    Sites[Pick] = Sites.back();
    Sites.pop_back();
    ++Res.CursorChecks;
    ForwardResult F = forwardCursor(Before, After, Site);
    auto Mismatch = [&](const std::string &What) {
      ++Res.CursorMismatches;
      Res.CursorNotes.push_back(
          "step '" + S.str() + "', cursor " +
          Cursor::fromStmtCursor(Before, Site).str() + ", fate " +
          forwardFateName(F.Fate) + ": " + What);
    };
    if (F.Fate == ForwardFate::Invalidated) {
      ++Res.CursorInvalidated;
      if (F.Reason.empty())
        Mismatch("invalidated without a reason");
      continue;
    }
    if (!cursorInBounds(After, F.Cur)) {
      Mismatch("forwarded out of bounds");
      continue;
    }
    if (F.Fate == ForwardFate::Rebuilt)
      continue; // landing in-bounds is the whole contract for rebuilt
    // Unchanged/shifted promise node identity for selections (gaps carry
    // no statements to compare).
    if (Site.Begin != Site.End) {
      std::vector<StmtRef> Old = analysis::selectedStmts(*Before, Site);
      std::vector<StmtRef> New = analysis::selectedStmts(*After, F.Cur);
      bool Same = Old.size() == New.size();
      for (size_t K = 0; Same && K < Old.size(); ++K)
        Same = Old[K].get() == New[K].get();
      if (!Same)
        Mismatch("live cursor is no longer node-identical");
    }
  }
}

} // namespace

std::optional<ScheduleStep> exo::testing::proposeStep(const ProcRef &P, Rng &R,
                                                      unsigned &NameCounter) {
  Targets T = collectTargets(P);
  // A single roll can land on an empty target class; a few retries keep
  // the proposal rate useful without biasing the distribution much.
  for (unsigned Attempt = 0; Attempt < 4; ++Attempt)
    if (std::optional<ScheduleStep> S = propose(T, R, NameCounter))
      return S;
  return std::nullopt;
}

namespace {

/// A fresh-name floor no suffix in \p Trace reaches: split/stage names are
/// "<iter>x<N>o"-shaped, so anything above the trace's step count times
/// the per-step name budget is safe.
unsigned nameCounterFloor(const std::vector<ScheduleStep> &Trace) {
  return 100 + unsigned(Trace.size()) * 2;
}

/// The argument index holding a small positive integer — the knob
/// numeric perturbation may turn — or -1.
int numericArgIndex(const ScheduleStep &S) {
  const OpSpec *Op = findOp(S.Op);
  return Op ? Op->Knob : -1;
}

} // namespace

std::vector<ScheduleStep>
exo::testing::mutateTrace(const ProcRef &P,
                          const std::vector<ScheduleStep> &Trace, Rng &R) {
  std::vector<ScheduleStep> Out = Trace;
  // Empty traces can only grow.
  unsigned Kind = Out.empty() ? 4 : unsigned(R.range(0, 4));
  switch (Kind) {
  case 0: { // drop a step
    Out.erase(Out.begin() + R.next() % Out.size());
    return Out;
  }
  case 1: { // duplicate a step in place (idempotence stress)
    size_t I = R.next() % Out.size();
    Out.insert(Out.begin() + I, Out[I]);
    return Out;
  }
  case 2: { // swap two adjacent steps
    if (Out.size() >= 2) {
      size_t I = R.next() % (Out.size() - 1);
      std::swap(Out[I], Out[I + 1]);
      return Out;
    }
    [[fallthrough]];
  }
  case 3: { // perturb a numeric argument
    std::vector<size_t> C;
    for (size_t I = 0; I < Out.size(); ++I)
      if (numericArgIndex(Out[I]) >= 0)
        C.push_back(I);
    if (!C.empty()) {
      ScheduleStep &S = Out[C[R.next() % C.size()]];
      int AI = numericArgIndex(S);
      auto V = parseNum(S.Args[AI]);
      int64_t Old = V ? *V : 2;
      static const int64_t Factors[] = {2, 4, 8, 16, 32};
      int64_t New = Old;
      while (New == Old)
        New = S.Op == "split" ? Factors[R.next() % 5]
                              : std::max<int64_t>(1, Old + R.range(-2, 2));
      S.Args[AI] = std::to_string(New);
      return Out;
    }
    [[fallthrough]];
  }
  default: { // append a fresh proposal against the trace's endpoint
    LenientApplyResult L = applyTraceLenient(P, Out);
    unsigned NC = nameCounterFloor(Out);
    if (std::optional<ScheduleStep> S = proposeStep(L.Final, R, NC))
      Out.push_back(std::move(*S));
    return Out;
  }
  }
}

std::vector<ScheduleStep>
exo::testing::crossoverTraces(const std::vector<ScheduleStep> &A,
                              const std::vector<ScheduleStep> &B, Rng &R) {
  // Cut points include both ends, so a crossover can be a pure prefix or
  // a pure suffix.
  size_t CutA = A.empty() ? 0 : R.next() % (A.size() + 1);
  size_t CutB = B.empty() ? 0 : R.next() % (B.size() + 1);
  std::vector<ScheduleStep> Out(A.begin(), A.begin() + CutA);
  Out.insert(Out.end(), B.begin() + CutB, B.end());
  return Out;
}

ScheduleResult exo::testing::generateSchedule(const ProcRef &P, Rng &R,
                                              const ScheduleGenOptions &O) {
  ScheduleResult Res;
  Res.Scheduled = P;
  unsigned NameCounter = 0;
  // Schedule-lifetime snapshot for the differential mode: it persists
  // across accepted steps, so later steps exercise the eviction logic
  // against summaries cached from earlier shapes of the procedure.
  analysis::EffectSnapshot Snap;
  // Where in the attempt sequence the unsound step (if any) fires.
  unsigned UnsoundAt =
      O.InjectUnsound ? unsigned(R.range(0, int64_t(O.MaxAttempts) / 2)) : ~0u;

  for (unsigned Attempt = 0;
       Attempt < O.MaxAttempts && Res.Accepted < O.MaxSteps; ++Attempt) {
    Targets T = collectTargets(Res.Scheduled);
    std::optional<ScheduleStep> S;
    if (Attempt == UnsoundAt && !T.Loops.empty()) {
      const LoopTgt &L = T.Loops[R.next() % T.Loops.size()];
      S = ScheduleStep{"unsound_drop_iter", {L.Iter, std::to_string(L.Ord)}};
    } else {
      S = propose(T, R, NameCounter);
    }
    if (!S)
      continue;
    ++Res.Proposed;
    auto &Stat = Res.OpStats[S->Op];
    ++Stat.first;
    auto Next = O.Differential ? applyStepDifferential(Res, *S, Snap)
                               : applyStep(Res.Scheduled, *S);
    if (!Next)
      continue; // rejection is a valid outcome
    ++Stat.second;
    ++Res.Accepted;
    if (O.CheckCursors)
      checkCursorForwarding(Res, Res.Scheduled, *Next, *S, R,
                            O.CursorsPerStep);
    Res.Scheduled = *Next;
    Res.Trace.push_back(std::move(*S));
  }
  if (O.Differential) {
    analysis::EffectSnapshotStats SS = Snap.stats();
    Res.IncrementalHits = SS.Hits;
    Res.IncrementalMisses = SS.Misses;
    Res.IncrementalProbesSkipped = SS.ProbesSkipped;
  }
  return Res;
}
