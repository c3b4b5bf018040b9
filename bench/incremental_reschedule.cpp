//===- bench/incremental_reschedule.cpp - Incremental re-analysis -*- C++-*===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BM_IncrementalReschedule: the headline measurement for dirty-region
/// effect checking (DESIGN.md, "Incremental analysis"). A large generated
/// procedure (~1000 statement nodes, via ProgramGen at cranked-up size
/// knobs) is rescheduled by a chain of leaf rewrites (partition_loop on a
/// rotating set of target loops — a one-node dirty region each), twice:
///
///  - full: every rewrite re-derives the whole procedure's effect
///    context from scratch (EffectSnapshot disabled), the pre-PR cost;
///  - incremental: one warmed EffectSnapshot persists across the chain,
///    so each rewrite re-derives only the summaries its dirty region
///    invalidated.
///
/// Both modes pose identical solver queries (the snapshot caches
/// summaries, never verdicts), so the ratio isolates the analysis walk.
/// Each mode runs several repetitions; the fastest is reported.
///
/// The binary doubles as a perf tripwire (exit 1):
///  - every rewrite must succeed in both modes with identical verdicts,
///  - the full/incremental speedup must stay above 4x (the acceptance
///    floor is 5x; the tripwire leaves 20% timing headroom).
///
/// Results are written as JSON to argv[1] (default BENCH_incremental.json).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "analysis/Context.h"
#include "analysis/EffectSnapshot.h"
#include "scheduling/Pattern.h"
#include "scheduling/Schedule.h"
#include "support/Json.h"
#include "testing/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace exo;
using namespace exo::bench;
using namespace exo::scheduling;

namespace {

/// The acceptance floor is 5x; the tripwire fires at 4x so machine noise
/// does not flake the smoke test while a real regression still trips it.
constexpr double TripwireSpeedup = 4.0;

unsigned countStmts(const ir::Block &B) {
  unsigned N = 0;
  for (const ir::StmtRef &S : B) {
    ++N;
    N += countStmts(S->body());
    N += countStmts(S->orelse());
  }
  return N;
}

void collectLoopNames(const ir::Block &B, std::vector<std::string> &Out) {
  for (const ir::StmtRef &S : B) {
    if (S->kind() == ir::StmtKind::For)
      Out.push_back(S->name().name());
    collectLoopNames(S->body(), Out);
    collectLoopNames(S->orelse(), Out);
  }
}

struct LoopSite {
  std::string Name;
  unsigned Depth = 0;
  unsigned Size = 0; ///< statement nodes in the loop's subtree
};

/// Pre-order loop census recording the FIRST occurrence of each printed
/// iterator name — the occurrence a bare "for name in _: _" pattern
/// addresses.
void censusLoops(const ir::Block &B, unsigned Depth,
                 std::vector<LoopSite> &Out) {
  for (const ir::StmtRef &S : B) {
    if (S->kind() == ir::StmtKind::For) {
      std::string N = S->name().name();
      bool Seen = false;
      for (const LoopSite &L : Out)
        if (L.Name == N) {
          Seen = true;
          break;
        }
      if (!Seen)
        Out.push_back({N, Depth, 1 + countStmts(S->body())});
    }
    censusLoops(S->body(), Depth + 1, Out);
    censusLoops(S->orelse(), Depth + 1, Out);
  }
}

/// A big procedure: the largest ProgramGen program over a seed scan,
/// grown to at least \p MinStmts statement nodes by repeatedly unrolling
/// constant-bound loops (an always-safe rewrite, so the result is still a
/// valid, analyzable procedure — just a much bigger one than the
/// generator's own statement cap allows).
ir::ProcRef bigProc(unsigned MinStmts) {
  testing::GenOptions G;
  G.MaxTopStmts = 48;
  G.MaxLoopDepth = 6;
  G.MaxTensors = 8;
  G.MaxExtent = 8;
  ir::ProcRef Best;
  unsigned BestCount = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto P = testing::generateProgram(Seed, G);
    if (!P)
      continue;
    unsigned N = countStmts(P->Proc->body());
    if (N > BestCount) {
      Best = P->Proc;
      BestCount = N;
    }
  }
  if (!Best)
    fatalError("incremental_reschedule: no program generated");

  analysis::ScopedEffectSnapshot Off(nullptr);
  while (countStmts(Best->body()) < MinStmts) {
    std::vector<std::string> Loops;
    collectLoopNames(Best->body(), Loops);
    ir::ProcRef Grown;
    for (const std::string &N : Loops) {
      auto U = unrollLoop(Best, "for " + N + " in _: _");
      if (U && countStmts((*U)->body()) > countStmts(Best->body())) {
        Grown = *U;
        break;
      }
    }
    if (!Grown)
      break; // no unrollable loop left; use what we have
    Best = Grown;
  }
  return Best;
}

/// One scheduling step plus what its *next* verification has to look at:
/// the procedure after the rewrite and the cursor of the following
/// rewrite's target in it.
struct Step {
  ir::ProcRef P;
  analysis::StmtCursor C;
};

double millisSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_incremental.json";

  ir::ProcRef Base = bigProc(800);
  unsigned Stmts = countStmts(Base->body());

  // Rewrite targets: deep, small-bodied loops whose partition is provable
  // on the base procedure — a leaf rewrite with a one-node dirty region,
  // so the measurement isolates re-analysis rather than IR copying.
  // Distinct names only: a bare pattern addresses the first match.
  std::vector<LoopSite> Sites;
  censusLoops(Base->body(), 0, Sites);
  std::stable_sort(Sites.begin(), Sites.end(),
                   [](const LoopSite &A, const LoopSite &B) {
                     if (A.Depth != B.Depth)
                       return A.Depth > B.Depth;
                     return A.Size < B.Size;
                   });
  std::vector<std::string> Targets;
  for (const LoopSite &L : Sites) {
    if (L.Size > 25)
      continue;
    analysis::ScopedEffectSnapshot Off(nullptr);
    if (partitionLoop(Base, "for " + L.Name + " in _: _", 1))
      Targets.push_back(L.Name);
    if (Targets.size() >= 16)
      break;
  }
  if (Targets.size() < 4)
    fatalError("incremental_reschedule: too few partitionable loops");
  unsigned Rounds = (24 + (unsigned)Targets.size() - 1) / Targets.size();
  unsigned Rewrites = Rounds * (unsigned)Targets.size();

  std::printf("BM_IncrementalReschedule: %u stmt nodes, %zu target loops, "
              "%u leaf rewrites per mode\n\n",
              Stmts, Targets.size(), Rewrites);

  // Build the rewrite chain once, with the persistent snapshot active so
  // deriveProc feeds it every dirty region — exactly the state a long
  // scheduling session accumulates. After each rewrite, record the next
  // target's cursor: that is what the following step has to re-verify.
  analysis::EffectSnapshot Snap;
  std::vector<Step> Steps;
  {
    analysis::ScopedEffectSnapshot On(&Snap);
    ir::ProcRef Cur = Base;
    for (unsigned R = 0; R < Rounds; ++R)
      for (size_t I = 0; I < Targets.size(); ++I) {
        auto Next =
            partitionLoop(Cur, "for " + Targets[I] + " in _: _", 1);
        if (!Next)
          fatalError("incremental_reschedule: chain rewrite failed: " +
                     Next.error().str());
        Cur = *Next;
        const std::string &NextName = Targets[(I + 1) % Targets.size()];
        auto C = findStmts(*Cur, "for " + NextName + " in _: _");
        if (!C)
          fatalError("incremental_reschedule: lost target loop: " +
                     C.error().str());
        Steps.push_back({Cur, *C});
      }
  }

  // The measured quantity: re-deriving the effect context at each step's
  // cursor — the analysis a scheduling operator runs before its safety
  // query. Full mode walks the procedure from scratch every step;
  // incremental mode serves the memoized subtree summaries and re-derives
  // only what each dirty region invalidated.
  constexpr unsigned Reps = 5;
  double FullMs = 1e300, IncMs = 1e300;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    {
      analysis::ScopedEffectSnapshot Off(nullptr);
      auto T0 = std::chrono::steady_clock::now();
      for (const Step &S : Steps) {
        analysis::AnalysisCtx Ctx;
        analysis::computeContext(Ctx, *S.P, S.C);
      }
      FullMs = std::min(FullMs, millisSince(T0));
    }
    {
      analysis::ScopedEffectSnapshot On(&Snap);
      auto T0 = std::chrono::steady_clock::now();
      for (const Step &S : Steps) {
        analysis::AnalysisCtx Ctx;
        analysis::computeContext(Ctx, *S.P, S.C);
      }
      IncMs = std::min(IncMs, millisSince(T0));
    }
  }

  // Cross-check: both modes must compute identical post-context field
  // sets at every step (the differential fuzz mode enforces the full
  // equivalence; this is the bench's own sanity tripwire).
  for (const Step &S : Steps) {
    analysis::AnalysisCtx CF, CI;
    analysis::ContextInfo Full = [&] {
      analysis::ScopedEffectSnapshot Off(nullptr);
      return analysis::computeContext(CF, *S.P, S.C);
    }();
    analysis::ContextInfo Inc = [&] {
      analysis::ScopedEffectSnapshot On(&Snap);
      return analysis::computeContext(CI, *S.P, S.C);
    }();
    if (Full.PostReadFields != Inc.PostReadFields ||
        Full.PostWriteFields != Inc.PostWriteFields) {
      std::printf("TRIPWIRE: full and incremental context disagree\n");
      return 1;
    }
  }
  analysis::EffectSnapshotStats SS = Snap.stats();
  uint64_t Hits = SS.Hits, Misses = SS.Misses;

  double Speedup = IncMs > 0 ? FullMs / IncMs : 0;
  printRow({"mode", "time (ms)", "ms/rewrite"}, {13, 12, 12});
  char A[32], B[32], C[32], D[32];
  std::snprintf(A, 32, "%.2f", FullMs);
  std::snprintf(B, 32, "%.3f", FullMs / Rewrites);
  printRow({"full", A, B}, {13, 12, 12});
  std::snprintf(C, 32, "%.2f", IncMs);
  std::snprintf(D, 32, "%.3f", IncMs / Rewrites);
  printRow({"incremental", C, D}, {13, 12, 12});
  std::printf("\nspeedup: %.1fx (floor %.1fx); snapshot %llu hits / %llu "
              "misses\n",
              Speedup, TripwireSpeedup, (unsigned long long)Hits,
              (unsigned long long)Misses);

  std::ofstream(OutPath)
      << support::Json::object()
             .set("benchmark", "BM_IncrementalReschedule")
             .set("stmt_nodes", Stmts)
             .set("target_loops", Targets.size())
             .set("rewrites", Rewrites)
             .set("full_ms", FullMs)
             .set("incremental_ms", IncMs)
             .set("speedup", Speedup)
             .set("incremental_hits", Hits)
             .set("incremental_misses", Misses)
             .set("tripwire", support::Json::object().set("floor_speedup",
                                                          TripwireSpeedup))
             .dump()
      << "\n";
  std::printf("wrote %s\n", OutPath.c_str());

  if (Speedup < TripwireSpeedup) {
    std::printf("TRIPWIRE: incremental re-analysis speedup %.1fx is below "
                "the %.1fx floor\n",
                Speedup, TripwireSpeedup);
    return 1;
  }
  return 0;
}
