//===- tests/FlowIdentityTest.cpp - Flow-identity predicate ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for analysis::flowsAsIdentity, the predicate behind the dataflow's
/// identity fast path and the stabilization-probe short-circuit: a
/// statement flows as the identity when no WriteConfig or WindowStmt is
/// reachable from it, looking through call bodies. Hand-built cases pin
/// the Gemmini shapes that motivate it (instruction loops after config
/// hoisting vs loops that still configure), and a differential check
/// compares the predicate against an independent walker over every
/// statement of the standard kernel suite and the deep-nest corpus.
///
//===----------------------------------------------------------------------===//

#include "analysis/EffectCache.h"
#include "analysis/EffectSnapshot.h"

#include "apps/GemminiMatmul.h"
#include "driver/KernelSuite.h"
#include "frontend/Parser.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "testing/Corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

namespace {

/// The reference predicate, written independently of the memoized one:
/// true iff a WriteConfig or WindowStmt is reachable from \p S, through
/// nested blocks and callee bodies.
bool reachesStateWrite(const StmtRef &S) {
  if (S->kind() == StmtKind::WriteConfig || S->kind() == StmtKind::WindowStmt)
    return true;
  std::vector<const Block *> Blocks = {&S->body(), &S->orelse()};
  if (S->kind() == StmtKind::Call)
    Blocks.push_back(&S->proc()->body());
  for (const Block *B : Blocks)
    for (const StmtRef &C : *B)
      if (reachesStateWrite(C))
        return true;
  return false;
}

/// Every statement reachable from \p B, callee bodies included (each
/// callee once).
void collectStmts(const Block &B, std::vector<StmtRef> &Out,
                  std::set<const Proc *> &SeenCallees) {
  for (const StmtRef &S : B) {
    Out.push_back(S);
    collectStmts(S->body(), Out, SeenCallees);
    collectStmts(S->orelse(), Out, SeenCallees);
    if (S->kind() == StmtKind::Call &&
        SeenCallees.insert(S->proc().get()).second)
      collectStmts(S->proc()->body(), Out, SeenCallees);
  }
}

/// The first statement in \p B (depth-first) satisfying \p Pred.
StmtRef findStmt(const Block &B,
                 const std::function<bool(const StmtRef &)> &Pred) {
  for (const StmtRef &S : B) {
    if (Pred(S))
      return S;
    if (StmtRef In = findStmt(S->body(), Pred))
      return In;
    if (StmtRef In = findStmt(S->orelse(), Pred))
      return In;
  }
  return nullptr;
}

bool callsProc(const Block &B, const std::string &Name) {
  return findStmt(B, [&](const StmtRef &S) {
           return S->kind() == StmtKind::Call && S->proc()->name() == Name;
         }) != nullptr;
}

/// Parses a module against a copy of the Gemmini library's environment
/// and returns its procedure named \p Name.
ProcRef gemminiModuleProc(const char *Src, const char *Name) {
  frontend::ParseEnv Env = hw::gemmini::gemminiLib().Env;
  auto M = frontend::parseModule(Src, Env);
  if (!M)
    fatalError(std::string("test parse failed: ") + M.error().str());
  ProcRef P = Env.findProc(Name);
  if (!P)
    fatalError(std::string("test module has no proc ") + Name);
  return P;
}

} // namespace

TEST(FlowIdentity, HoistedGemminiInstructionLoopIsIdentity) {
  // After config hoisting, the tile loops hold only ld/zero/matmul/st
  // instruction calls. The old rule rejected them for containing calls;
  // their callee bodies write no configuration, so they flow as the
  // identity and their stabilization probes are skipped.
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  StmtRef Loop = findStmt(K->ExoLib->body(), [](const StmtRef &S) {
    return S->kind() == StmtKind::For;
  });
  ASSERT_TRUE(Loop);
  EXPECT_TRUE(callsProc(Loop->body(), "gemmini_ld_data"));
  EXPECT_TRUE(callsProc(Loop->body(), "gemmini_matmul16"));
  EXPECT_FALSE(callsProc(Loop->body(), "gemmini_config_ld1"));
  EXPECT_FALSE(isStateInvariant(Loop)) << "holds calls: not canon-eligible";
  EXPECT_TRUE(flowsAsIdentity(Loop));

  // No snapshot: the skipped probe reports no key. With one, the skip is
  // counted as neither a hit nor a miss.
  AnalysisCtx Ctx;
  EXPECT_TRUE(stabilizedKeys(Ctx, Loop, FlowState()).empty());
  EffectSnapshot Snap;
  ScopedEffectSnapshot On(&Snap);
  EXPECT_TRUE(stabilizedKeys(Ctx, Loop, FlowState()).empty());
  EffectSnapshotStats SS = Snap.stats();
  EXPECT_EQ(SS.ProbesSkipped, 1u);
  EXPECT_EQ(SS.Hits + SS.Misses, 0u);
}

TEST(FlowIdentity, LoopHoldingConfigCallIsNotIdentity) {
  // The old-library schedule keeps gemmini_config_ld1 inside the tile
  // loops; flowing such a loop rewrites ConfigLd1.src_stride.
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  StmtRef Loop = findStmt(K->OldLib->body(), [](const StmtRef &S) {
    return S->kind() == StmtKind::For &&
           callsProc(S->body(), "gemmini_config_ld1");
  });
  ASSERT_TRUE(Loop) << "old-lib schedule lost its in-loop config call";
  EXPECT_FALSE(flowsAsIdentity(Loop));
  EXPECT_TRUE(reachesStateWrite(Loop));
}

TEST(FlowIdentity, CallOfAConfigWritingProcIsNotIdentity) {
  // The write sits two calls deep: caller -> set_ld -> gemmini_config_ld1.
  ProcRef P = gemminiModuleProc(R"(
@proc
def set_ld(s: stride):
    gemmini_config_ld1(s)

@proc
def outer(x: R[16, 16]):
    for i in seq(0, 4):
        set_ld(stride(x, 0))
)",
                                "outer");
  const StmtRef &Loop = P->body()[0];
  ASSERT_EQ(Loop->kind(), StmtKind::For);
  EXPECT_FALSE(flowsAsIdentity(Loop->body()[0]));
  EXPECT_FALSE(flowsAsIdentity(Loop));

  // The probe runs and reports the written field.
  AnalysisCtx Ctx;
  std::vector<Sym> Changed = stabilizedKeys(Ctx, Loop, FlowState());
  ASSERT_EQ(Changed.size(), 1u);
  EXPECT_EQ(Changed[0], hw::gemmini::gemminiLib().CfgLd1->fields()[0].Name);
}

TEST(FlowIdentity, CalleeHoldingAWindowStmtIsNotIdentity) {
  // Flowing the call binds a window alias, so it is not an identity even
  // though no configuration is written.
  ProcRef P = gemminiModuleProc(R"(
@proc
def win(x: R[16, 16]):
    y = x[0:8, 0:8]
    y[0, 0] = 1.0

@proc
def caller(x: R[16, 16]):
    for i in seq(0, 2):
        win(x)
)",
                                "caller");
  const StmtRef &Loop = P->body()[0];
  EXPECT_FALSE(flowsAsIdentity(Loop->body()[0]));
  EXPECT_FALSE(flowsAsIdentity(Loop));
  EXPECT_TRUE(reachesStateWrite(Loop));
}

TEST(FlowIdentity, AgreesWithReferenceWalkerOnSuiteAndDeepCorpus) {
  std::vector<ProcRef> Procs;
  for (const driver::CompileJob &Job : driver::standardKernelSuite()) {
    auto Built = Job.Build();
    ASSERT_TRUE(bool(Built)) << Job.Name << ": " << Built.error().str();
    Procs.insert(Procs.end(), Built->begin(), Built->end());
  }
  unsigned DeepCases = 0;
  for (const auto &E :
       std::filesystem::directory_iterator(EXO_SOURCE_DIR "/tests/corpus")) {
    if (E.path().filename().string().find("_deep") == std::string::npos)
      continue;
    auto Case = exo::testing::readCorpusFile(E.path().string());
    ASSERT_TRUE(bool(Case)) << E.path() << ": " << Case.error().str();
    auto OC = exo::testing::materializeCorpus(*Case);
    ASSERT_TRUE(bool(OC)) << E.path() << ": " << OC.error().str();
    Procs.push_back(OC->Reference);
    Procs.push_back(OC->Scheduled);
    ++DeepCases;
  }
  EXPECT_GE(DeepCases, 5u) << "deep-nesting corpus shrank";

  std::vector<StmtRef> Stmts;
  std::set<const Proc *> SeenCallees;
  for (const ProcRef &P : Procs)
    collectStmts(P->body(), Stmts, SeenCallees);

  unsigned ThroughCalls = 0, NotIdentity = 0;
  for (const StmtRef &S : Stmts) {
    bool Identity = flowsAsIdentity(S);
    EXPECT_EQ(Identity, !reachesStateWrite(S));
    // The memoized bit is stable on a second ask.
    EXPECT_EQ(flowsAsIdentity(S), Identity);
    if (Identity && !isStateInvariant(S))
      ++ThroughCalls;
    if (!Identity)
      ++NotIdentity;
    // Exactness: an identity call's inlined body leaves the state as is.
    if (Identity && S->kind() == StmtKind::Call) {
      AnalysisCtx Ctx;
      FlowState State;
      flowBlock(Ctx, State, substitutedCalleeBody(S));
      EXPECT_TRUE(State.Env.empty() && State.Aliases.empty());
    }
  }
  // Both verdicts occur, and the call-transparent rule admits statements
  // the state-invariance rule rejects.
  EXPECT_GT(ThroughCalls, 0u);
  EXPECT_GT(NotIdentity, 0u);
}
