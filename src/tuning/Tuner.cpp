//===- tuning/Tuner.cpp ----------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "smt/QueryCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>

using namespace exo;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

std::atomic<uint64_t> GRunsStarted{0}, GRunsFinished{0}, GGenerationsDone{0},
    GCandidatesTried{0}, GCandidatesOk{0};

double nowMillis() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// Dedup key and deterministic tie-break: the proposed trace, one step
/// per line.
std::string keyOf(const std::vector<ScheduleStep> &Trace) {
  std::string K;
  for (const ScheduleStep &S : Trace) {
    K += S.str();
    K += '\n';
  }
  return K;
}

/// Evaluates every candidate of \p Pop in parallel. Each evaluation runs
/// under its own query-cache job, so schedule-analysis verdicts one
/// candidate proves are counted as cross-job hits when siblings reuse
/// them. Results land in the candidates themselves; no draw of the
/// search RNG happens here, so the fan-out cannot perturb determinism.
void evaluateAll(std::vector<Candidate> &Pop, const SearchSpace &Space,
                 CostModel &CM, support::ThreadPool &Pool) {
  for (Candidate &C : Pop) {
    Pool.submit([&C, &Space, &CM] {
      smt::ScopedQueryJob Job;
      LenientApplyResult A = applyTraceLenient(Space.Algorithm, C.Trace);
      C.Applied = std::move(A.Applied);
      C.Rejected = A.Rejected;
      C.Eval = CM.evaluate(A.Final);
      ++GCandidatesTried;
      if (C.Eval.Ok)
        ++GCandidatesOk;
    });
  }
  Pool.waitIdle();
}

bool betterThan(const Candidate &A, const Candidate &B) {
  if (A.Eval.Score != B.Eval.Score)
    return A.Eval.Score < B.Eval.Score;
  return keyOf(A.Trace) < keyOf(B.Trace); // deterministic tie-break
}

} // namespace

TuneResult exo::tuning::tune(const TuneOptions &O) {
  TuneResult Out;
  auto Space = buildSearchSpace(O.Kernel, O.Shape);
  if (!Space) {
    Out.Error = Space.error().str();
    return Out;
  }
  if (O.Population == 0 || O.Generations == 0 || O.Beam == 0) {
    Out.Error = "population, generations, and beam must all be positive";
    return Out;
  }

  ++GRunsStarted;
  double T0 = nowMillis();
  driver::CompilerCounters Before = driver::CompilerCounters::global();

  CostModel CM(O.Shape, O.Score);
  support::ThreadPool Pool(O.Threads == 0
                               ? support::ThreadPool::hardwareThreads()
                               : (O.Threads <= 1 ? 0 : O.Threads));

  // Score the expert baseline first: it is the bar the report compares
  // against, and its verdict does not depend on the search.
  if (Space->Handwritten) {
    smt::ScopedQueryJob Job;
    Out.Handwritten = CM.evaluate(Space->Handwritten);
    Out.HaveHandwritten = Out.Handwritten.Ok;
  }

  Rng R(O.Seed);
  std::set<std::string> Seen;
  std::vector<Candidate> Population, Survivors;
  bool HaveBest = false;

  // Generation zero: the seeds, padded to Population with seed mutants.
  for (const auto &T : Space->Seeds) {
    if (!Seen.insert(keyOf(T)).second)
      continue;
    Candidate C;
    C.Trace = T;
    Population.push_back(std::move(C));
  }
  unsigned PadAttempts = 0;
  while (Population.size() < O.Population && PadAttempts++ < O.Population * 8) {
    const auto &Seed = Space->Seeds[R.next() % Space->Seeds.size()];
    std::vector<ScheduleStep> T = mutateTrace(Space->Algorithm, Seed, R);
    if (!Seen.insert(keyOf(T)).second)
      continue;
    Candidate C;
    C.Trace = std::move(T);
    Population.push_back(std::move(C));
  }

  for (unsigned Gen = 0; Gen < O.Generations; ++Gen) {
    if (O.MaxCandidates &&
        Out.Stats.Tried + Population.size() > O.MaxCandidates)
      Population.resize(O.MaxCandidates > Out.Stats.Tried
                            ? O.MaxCandidates - Out.Stats.Tried
                            : 0);
    if (Population.empty())
      break;
    for (Candidate &C : Population)
      C.Generation = Gen;

    evaluateAll(Population, *Space, CM, Pool);
    ++GGenerationsDone;
    ++Out.Stats.GenerationsRun;

    for (Candidate &C : Population) {
      ++Out.Stats.Tried;
      if (!C.Eval.Ok)
        continue;
      ++Out.Stats.Ok;
      Survivors.push_back(C);
      if (!HaveBest || betterThan(C, Out.Best)) {
        Out.Best = C;
        HaveBest = true;
      }
    }
    std::sort(Survivors.begin(), Survivors.end(), betterThan);
    if (Survivors.size() > O.Beam)
      Survivors.resize(O.Beam);

    GenerationEntry E;
    E.Gen = Gen;
    E.BestScore = HaveBest ? Out.Best.Eval.Score : 0;
    E.Tried = Out.Stats.Tried;
    E.Ok = Out.Stats.Ok;
    Out.Log.push_back(E);

    if (Gen + 1 == O.Generations)
      break;
    if (O.MaxCandidates && Out.Stats.Tried >= O.MaxCandidates)
      break;
    if (O.DeadlineMillis && nowMillis() - T0 >= (double)O.DeadlineMillis)
      break;

    // Children: mutants of survivors, crossovers between survivors, and
    // a trickle of fresh seed mutants to keep diversity when the beam
    // collapses onto one basin. All draws happen here, serially.
    Population.clear();
    unsigned Attempts = 0;
    while (Population.size() < O.Population &&
           Attempts++ < O.Population * 10) {
      std::vector<ScheduleStep> T;
      unsigned Roll = R.range(0, 9);
      if (Survivors.empty() || Roll < 2) {
        const auto &Seed = Space->Seeds[R.next() % Space->Seeds.size()];
        T = mutateTrace(Space->Algorithm, Seed, R);
      } else if (Roll < 8 || Survivors.size() < 2) {
        const Candidate &P = Survivors[R.next() % Survivors.size()];
        T = mutateTrace(Space->Algorithm, P.Applied, R);
      } else {
        size_t IA = R.next() % Survivors.size();
        size_t IB = R.next() % (Survivors.size() - 1);
        if (IB >= IA)
          ++IB; // two distinct parents
        T = crossoverTraces(Survivors[IA].Applied, Survivors[IB].Applied, R);
      }
      if (!Seen.insert(keyOf(T)).second)
        continue;
      Candidate C;
      C.Trace = std::move(T);
      Population.push_back(std::move(C));
    }
  }

  Out.Stats.Cache = driver::CompilerCounters::global().since(Before);
  Out.Stats.WallMillis = nowMillis() - T0;
  Out.Stats.CandidatesPerSec =
      Out.Stats.WallMillis > 0
          ? 1000.0 * (double)Out.Stats.Tried / Out.Stats.WallMillis
          : 0;
  Out.Ok = HaveBest;
  if (!HaveBest)
    Out.Error = "no candidate executed and verified";
  ++GRunsFinished;
  return Out;
}

support::Json exo::tuning::tuneJson(const TuneOptions &O,
                                    const TuneResult &R) {
  using support::Json;
  Json J = Json::object();
  J.set("kernel", O.Kernel)
      .set("shape", std::to_string(O.Shape.N) + "x" +
                        std::to_string(O.Shape.M) + "x" +
                        std::to_string(O.Shape.K))
      .set("metric", metricName(O.Score))
      .set("population", O.Population)
      .set("generations", R.Stats.GenerationsRun)
      .set("beam", O.Beam)
      .set("seed", O.Seed)
      .set("threads",
           O.Threads ? O.Threads : support::ThreadPool::hardwareThreads())
      .set("candidates_tried", R.Stats.Tried)
      .set("candidates_ok", R.Stats.Ok)
      .set("candidates_per_sec", R.Stats.CandidatesPerSec)
      .set("wall_ms", R.Stats.WallMillis)
      .set("ok", R.Ok);
  if (R.Ok)
    J.set("best_score", R.Best.Eval.Score)
        .set("best_cycles", R.Best.Eval.SimCycles)
        .set("best_wall_ms", R.Best.Eval.WallMillis)
        .set("best_generation", R.Best.Generation);
  if (R.HaveHandwritten) {
    J.set("handwritten_score", R.Handwritten.Score)
        .set("handwritten_cycles", R.Handwritten.SimCycles);
    if (R.Ok && R.Handwritten.Score > 0)
      J.set("best_vs_handwritten", R.Best.Eval.Score / R.Handwritten.Score);
  }
  J.merge(R.Stats.Cache.toJson());
  Json Log = Json::array();
  for (const GenerationEntry &E : R.Log)
    Log.push(Json::object()
                 .set("gen", E.Gen)
                 .set("best_score", E.BestScore)
                 .set("tried", E.Tried)
                 .set("ok", E.Ok));
  Json Trace = Json::array();
  if (R.Ok)
    for (const ScheduleStep &S : R.Best.Applied)
      Trace.push(S.str());
  return J.set("generation_log", std::move(Log))
      .set("best_trace", std::move(Trace));
}

TunerProgress exo::tuning::tunerProgress() {
  TunerProgress P;
  P.RunsStarted = GRunsStarted.load();
  P.RunsFinished = GRunsFinished.load();
  P.GenerationsDone = GGenerationsDone.load();
  P.CandidatesTried = GCandidatesTried.load();
  P.CandidatesOk = GCandidatesOk.load();
  return P;
}
