//===- perfbench/CompileCold.cpp - The compile_cold workload ---*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each operation compiles the 7-job standardKernelSuite() once through
/// driver::CompileSession, single threaded, with cold process-wide caches
/// (term interner, query cache, effect cache): what a fresh exocc-batch
/// pays. Scheduling, effect analysis and the solver do nearly all of the
/// work; no host C compiler runs.
///
/// Every pass runs in its own forked child of a process that has never
/// compiled anything, so every pass starts from the same state, and, like
/// a fresh exocc-batch, builds the hardware libraries lazily. In one
/// long-lived process the passes slow down as more of them run (the
/// Gemmini jobs ended up three times slower after about a hundred), even
/// with the caches cleared before each; a fresh exocc-batch never pays
/// that. Set-up builds the job list and compiles the suite WarmupPasses
/// times, each in a fresh child too; the C they emit is the reference.
///
/// Correctness: every job must succeed; every pass must emit C
/// byte-identical to the set-up's; the solver counters and the C size of
/// every pass must equal the recorded exact counts below; and after the
/// timed loop each job's scheduled procedures must compute what its
/// unscheduled reference computes, through the interpreter on seeded
/// inputs.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "backend/CodeGen.h"
#include "driver/KernelSuite.h"
#include "interp/Interp.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/wait.h>
#include <unistd.h>

using namespace exo;
using namespace perfbench;

namespace {

/// The exact per-pass counts of a cold suite compile. They repeat exactly
/// on every pass and every run; a change to scheduling, the solver or
/// codegen that moves one must update it here.
struct ExactCounts {
  uint64_t Queries = 296;
  uint64_t SimplifyDecided = 294;
  uint64_t CooperLiterals = 35128;
  uint64_t CBytes = 36313;
};

/// Cold suite compiles per set-up, each in a fresh child like a timed
/// pass: enough to span the machine's short swings in speed, so that
/// setup_s is steady.
constexpr int WarmupPasses = 8;

/// Counter deltas over one pass.
struct PassCounters {
  CompilerCounters Compiler;
  uint64_t IncrementalHits = 0, IncrementalMisses = 0;
  uint64_t CBytes = 0;
};

/// One cold pass over the suite. Returns the per-job results and fills
/// \p Counters; the caller times it.
std::vector<driver::JobResult>
compilePass(const std::vector<driver::CompileJob> &Jobs,
            PassCounters &Counters, std::vector<double> &JobMs) {
  driver::CompileSession Session;
  std::vector<driver::JobResult> Results;
  JobMs.clear();
  CompilerCounters Before = CompilerCounters::now();
  for (const driver::CompileJob &Job : Jobs) {
    Span S("driver.job", newTraceGroup(), Job.Name);
    Results.push_back(Session.run(Job));
    JobMs.push_back(S.end());
  }
  Counters = {CompilerCounters::now().since(Before), 0, 0, 0};
  for (const driver::JobResult &J : Results) {
    Counters.IncrementalHits += J.IncrementalHits;
    Counters.IncrementalMisses += J.IncrementalMisses;
    Counters.CBytes += J.Output.size();
  }
  return Results;
}

/// Interpreter inputs for \p P: one seeded buffer of small integers per
/// tensor or data argument (exact in the double-precision interpreter).
/// Returns false when an argument shape is not a compile-time constant.
bool makeInputs(const ir::ProcRef &P, uint64_t Seed,
                std::vector<std::vector<double>> &Storage,
                std::vector<std::vector<int64_t>> &Dims) {
  Rng G(Seed);
  for (const ir::FnArg &A : P->args()) {
    if (A.Ty.isControl())
      return false;
    std::vector<int64_t> D;
    int64_t N = 1;
    for (const ir::ExprRef &E : A.Ty.dims()) {
      if (E->kind() != ir::ExprKind::Const)
        return false;
      D.push_back(E->intValue());
      N *= D.back();
    }
    std::vector<double> Buf(static_cast<size_t>(N));
    for (double &V : Buf)
      V = static_cast<double>(G.range(-3, 3));
    Storage.push_back(std::move(Buf));
    Dims.push_back(std::move(D));
  }
  return true;
}

Expected<std::vector<std::vector<double>>>
interpret(const ir::ProcRef &P, uint64_t Seed, uint64_t Group,
          double &InterpMs) {
  std::vector<std::vector<double>> Storage;
  std::vector<std::vector<int64_t>> Dims;
  if (!makeInputs(P, Seed, Storage, Dims))
    return makeError(Error::Kind::Internal,
                     P->name() + ": argument shapes are not constant");
  std::vector<interp::ArgValue> Args;
  for (size_t I = 0; I < Storage.size(); ++I)
    Args.push_back(interp::ArgValue::buffer(
        interp::BufferView::dense(Storage[I].data(), Dims[I])));
  interp::Interp In;
  Span S("interp.run", Group, P->name());
  auto Ran = In.run(P, std::move(Args));
  InterpMs += S.end();
  if (!Ran)
    return Ran.error();
  return Storage;
}

/// Checks every scheduled procedure of \p Job against its unscheduled
/// reference on the same seeded inputs.
void checkAgainstReference(const driver::CompileJob &Job, uint64_t Seed,
                           Report &R, double &InterpMs) {
  auto Scheduled = Job.Build();
  auto Ref = driver::buildReference(Job.Name);
  if (!Scheduled || !Ref || Ref->size() != 1) {
    R.check(false, Job.Name + ": cannot build the scheduled or reference "
                              "procedures for the interpreter check");
    return;
  }
  uint64_t G = newTraceGroup();
  auto Want = interpret(Ref->front(), Seed, G, InterpMs);
  if (!Want) {
    R.check(false, Job.Name + ": reference: " + Want.error().str());
    return;
  }
  for (const ir::ProcRef &P : *Scheduled) {
    auto Got = interpret(P, Seed, G, InterpMs);
    bool Same = Got && Got->size() == Want->size();
    for (size_t B = 0; Same && B < Got->size(); ++B)
      Same = (*Got)[B] == (*Want)[B];
    R.check(Same, Job.Name + ": " + P->name() +
                      (Got ? " differs from the reference in the interpreter"
                           : ": " + Got.error().str()));
  }
}

/// What one timed pass reports back from its child process.
struct PassOutcome {
  static constexpr size_t MaxJobs = 16;
  bool Ok = false; ///< every job succeeded and emitted the reference C
  double PassMs = 0;
  double JobMs[MaxJobs] = {};
  double ParseMs = 0, CodegenMs = 0; ///< traced runs only
  PassCounters Counters;
};

/// One timed pass, then (traced runs only) the per-layer split: the front
/// end alone (buildReference parses and checks without scheduling), and
/// codegen alone over the scheduled procedures of a re-build.
PassOutcome timedPass(const std::vector<driver::CompileJob> &Jobs,
                      const std::vector<std::string> &RefC) {
  PassOutcome Out;
  std::vector<double> JobMs;
  double T0 = nowMs();
  std::vector<driver::JobResult> Results =
      compilePass(Jobs, Out.Counters, JobMs);
  Out.PassMs = nowMs() - T0;
  Out.Ok = Results.size() == RefC.size();
  for (size_t I = 0; Out.Ok && I < Results.size(); ++I)
    Out.Ok = Results[I].Ok && Results[I].Output == RefC[I];
  std::copy(JobMs.begin(), JobMs.end(), Out.JobMs);
  if (!tracingEnabled())
    return Out;
  for (const driver::CompileJob &Job : Jobs) {
    uint64_t G = newTraceGroup();
    Span P("frontend.parse", G, Job.Name);
    (void)driver::buildReference(Job.Name);
    Out.ParseMs += P.end();
    auto Procs = Job.Build();
    if (!Procs)
      continue;
    Span CG("backend.codegen", G, Job.Name);
    (void)backend::generateC(*Procs);
    Out.CodegenMs += CG.end();
  }
  return Out;
}

bool writeAll(int Fd, const std::string &Bytes) {
  const char *P = Bytes.data();
  size_t Len = Bytes.size();
  while (Len > 0) {
    ssize_t N = write(Fd, P, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Runs \p Body in a forked child and returns the bytes it produced. The
/// child's changes to process state die with it.
template <typename Fn> Expected<std::string> inChild(Fn Body) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return makeError(Error::Kind::Internal, "pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return makeError(Error::Kind::Internal, "fork failed");
  }
  if (Pid == 0) {
    close(Fds[0]);
    _exit(writeAll(Fds[1], Body()) ? 0 : 1);
  }
  close(Fds[1]);
  std::string Bytes;
  char Buf[65536];
  for (;;) {
    ssize_t N = read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Bytes.append(Buf, static_cast<size_t>(N));
  }
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return makeError(Error::Kind::Internal, "a child process failed");
  return Bytes;
}

/// Length-prefixed strings, to carry the suite's C out of a child.
std::string packStrings(const std::vector<std::string> &Strs) {
  std::string Out;
  for (const std::string &S : Strs) {
    uint64_t N = S.size();
    Out.append(reinterpret_cast<const char *>(&N), sizeof(N));
    Out += S;
  }
  return Out;
}

std::vector<std::string> unpackStrings(const std::string &Bytes) {
  std::vector<std::string> Out;
  for (size_t Pos = 0; Pos + sizeof(uint64_t) <= Bytes.size();) {
    uint64_t N = 0;
    std::memcpy(&N, Bytes.data() + Pos, sizeof(N));
    Pos += sizeof(N);
    Out.push_back(Bytes.substr(Pos, N));
    Pos += N;
  }
  return Out;
}

} // namespace

void perfbench::runCompileCold(const Options &O, Report &R) {
  const ExactCounts Want;
  std::vector<driver::CompileJob> Jobs;
  std::vector<std::string> RefC;
  bool SetupOk = true;
  timeSetup(R, [&] {
    Jobs = driver::standardKernelSuite();
    for (int I = 0; I < WarmupPasses; ++I) {
      Expected<std::string> C = inChild([&] {
        std::vector<double> JobMs;
        PassCounters Counters;
        std::vector<std::string> Outputs;
        for (const driver::JobResult &J : compilePass(Jobs, Counters, JobMs))
          Outputs.push_back(J.Ok ? J.Output : std::string());
        return packStrings(Outputs);
      });
      std::vector<std::string> Got =
          C ? unpackStrings(*C) : std::vector<std::string>();
      SetupOk = SetupOk && Got.size() == Jobs.size() &&
                std::none_of(Got.begin(), Got.end(),
                             [](const std::string &C) { return C.empty(); }) &&
                (RefC.empty() || Got == RefC);
      RefC = std::move(Got);
    }
  });
  R.info("jobs", static_cast<double>(Jobs.size()));
  R.info("threads", 1.0);
  R.check(SetupOk && Jobs.size() <= PassOutcome::MaxJobs,
          "set-up: a job failed, or set-ups emitted different C");
  if (!SetupOk)
    return;

  std::vector<double> PassMs, ParseMs, CodegenMs, BuildMs;
  std::vector<std::vector<double>> PerJobMs(Jobs.size());
  PassCounters First;
  double End = nowMs() + O.Seconds * 1000.0;
  for (unsigned Pass = 0; Pass == 0 || nowMs() < End; ++Pass) {
    size_t Mark = spanCount();
    Expected<std::string> Bytes = inChild([&] {
      PassOutcome Out = timedPass(Jobs, RefC);
      return std::string(reinterpret_cast<const char *>(&Out), sizeof(Out)) +
             exportSpans(Mark);
    });
    if (!Bytes || Bytes->size() < sizeof(PassOutcome)) {
      R.check(false, "pass " + std::to_string(Pass) + ": the child failed");
      continue;
    }
    PassOutcome P;
    std::memcpy(&P, Bytes->data(), sizeof(P));
    importSpans(Bytes->substr(sizeof(P)));
    const PassCounters &C = P.Counters;
    PassMs.push_back(P.PassMs);
    if (PassMs.size() == 1)
      First = C;
    R.check(P.Ok, "pass " + std::to_string(Pass) +
                      ": a job failed or its C differs from the set-up's");
    R.check(C.Compiler.Solver.NumQueries == Want.Queries &&
                C.Compiler.Solver.SimplifyDecided == Want.SimplifyDecided &&
                C.Compiler.Solver.NumLiterals == Want.CooperLiterals &&
                C.CBytes == Want.CBytes,
            "pass " + std::to_string(Pass) + ": exact counts moved (queries " +
                std::to_string(C.Compiler.Solver.NumQueries) +
                ", simplify-decided " +
                std::to_string(C.Compiler.Solver.SimplifyDecided) +
                ", cooper literals " +
                std::to_string(C.Compiler.Solver.NumLiterals) + ", C bytes " +
                std::to_string(C.CBytes) + ")");
    double JobTotal = 0;
    for (size_t I = 0; I < Jobs.size(); ++I) {
      PerJobMs[I].push_back(P.JobMs[I]);
      JobTotal += P.JobMs[I];
    }
    ParseMs.push_back(P.ParseMs);
    CodegenMs.push_back(P.CodegenMs);
    BuildMs.push_back(JobTotal - P.ParseMs - P.CodegenMs);
  }
  R.info("passes", static_cast<double>(PassMs.size()));

  double InterpMs = 0;
  for (const driver::CompileJob &Job : Jobs)
    checkAgainstReference(Job, O.Seed, R, InterpMs);

  R.metric("peak_rss_mb", peakRssMb(/*WithChildren=*/true), "MB");
  R.metric("op_ms.p75", percentile(PassMs, 75), "ms");
  R.metric("op_ms.p90", percentile(PassMs, 90), "ms");
  if (!O.Trace)
    return;

  R.metric("interp.run_ms", InterpMs, "ms");
  R.metric("frontend.parse_ms", percentile(ParseMs, 50), "ms");
  R.metric("scheduling.build_ms", percentile(BuildMs, 50), "ms");
  R.metric("backend.codegen_ms", percentile(CodegenMs, 50), "ms");
  for (size_t I = 0; I < Jobs.size(); ++I)
    R.metric("driver.job_ms." + Jobs[I].Name, percentile(PerJobMs[I], 50),
             "ms");
  R.metric("backend.c_bytes", static_cast<double>(First.CBytes), "bytes");
  reportCompilerCounters(R, First.Compiler);
  uint64_t ILookups = First.IncrementalHits + First.IncrementalMisses;
  R.metric("analysis.incremental.lookups", static_cast<double>(ILookups),
           "count");
  R.metric("analysis.incremental.hit_ratio",
           ratio(First.IncrementalHits, ILookups), "ratio");
}
