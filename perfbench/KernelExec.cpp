//===- perfbench/KernelExec.cpp - The kernel_* workloads -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times calls of Exo-generated kernels at the paper's sizes. Set-up
/// schedules every kernel of the workload, generates its C, compiles it
/// with `cc -O2 -march=native` into a shared object in the run's scratch
/// directory and loads it; the compiler layers run only there. The timed
/// loop then calls the x86 kernels round robin, each call timed alone.
///
///  kernel_incache:  SGEMM 192^3 and 384^3, whose operands fit in L2, plus
///                   the Gemmini-simulator rows (three Fig. 4a ResNet
///                   matmuls, the three Fig. 4b convs). A simulator row's
///                   figure is its cycle count, which is deterministic,
///                   so it runs once per run, after the timed loop.
///  kernel_outcache: SGEMM 768^3, 1152^3, 1536^3, three Fig. 5b skewed
///                   shapes (K = 512) and the Fig. 6 x86 conv, none of
///                   which fits in L2.
///
/// kernel_incache also scores the hand-written Gemmini matmul once through
/// the autotuner's cost model, the one bounded piece of a tuning search
/// (see perfbench/README.md for why searches are not a workload).
///
/// Correctness: sampled output entries of every kernel are checked against
/// a naive host computation on the same seeded inputs.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "apps/Conv.h"
#include "apps/GemminiMatmul.h"
#include "apps/Sgemm.h"
#include "backend/Backend.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <fstream>
#include <map>
#include <memory>

using namespace exo;
using namespace perfbench;

namespace {

enum class Kind { Sgemm, ConvX86, GemminiMatmul, GemminiConv };

/// One row: a kernel at one shape. For matmuls the shape is M x N x K
/// (C[M,N] += A[M,K] B[K,N]); for convs it is the ConvShape.
struct Row {
  std::string Name;
  Kind K;
  int64_t M = 0, N = 0, KDim = 0;
  apps::ConvShape Conv{0, 0, 0, 0, 0};

  bool onSimulator() const {
    return K == Kind::GemminiMatmul || K == Kind::GemminiConv;
  }
  double macs() const {
    return K == Kind::Sgemm || K == Kind::GemminiMatmul
               ? double(M) * double(N) * double(KDim)
               : Conv.macs();
  }
};

Row sgemm(std::string Name, int64_t M, int64_t N, int64_t K) {
  return {std::move(Name), Kind::Sgemm, M, N, K, {0, 0, 0, 0, 0}};
}

std::vector<Row> rowsFor(bool OutOfCache) {
  if (OutOfCache)
    return {sgemm("sgemm_768", 768, 768, 768),
            sgemm("sgemm_1152", 1152, 1152, 1152),
            sgemm("sgemm_1536", 1536, 1536, 1536),
            sgemm("sgemm_126x2048", 126, 2048, 512),
            sgemm("sgemm_510x512", 510, 512, 512),
            sgemm("sgemm_2046x128", 2046, 128, 512),
            // The paper's Fig. 6 layer: batch 5, output 100x80, 128 -> 128.
            {"conv_x86", Kind::ConvX86, 0, 0, 0, {5, 102, 82, 128, 128}}};
  // Fig. 4a shapes are N x M x K; Fig. 4b convs are out x OC x IC with
  // H = W = out + 2 and batch 4.
  return {sgemm("sgemm_192", 192, 192, 192),
          sgemm("sgemm_384", 384, 384, 384),
          {"gemmini_matmul_3136x64x256", Kind::GemminiMatmul, 3136, 64, 256,
           {0, 0, 0, 0, 0}},
          {"gemmini_matmul_784x256x512", Kind::GemminiMatmul, 784, 256, 512,
           {0, 0, 0, 0, 0}},
          {"gemmini_matmul_192x1024x256", Kind::GemminiMatmul, 192, 1024, 256,
           {0, 0, 0, 0, 0}},
          {"gemmini_conv_56x64x64", Kind::GemminiConv, 0, 0, 0,
           {4, 58, 58, 64, 64}},
          {"gemmini_conv_28x128x128", Kind::GemminiConv, 0, 0, 0,
           {4, 30, 30, 128, 128}},
          {"gemmini_conv_14x256x256", Kind::GemminiConv, 0, 0, 0,
           {4, 16, 16, 256, 256}}};
}

std::string runtimeDir(const char *Lib) {
  return std::string(EXO_ROOT) + "/src/hwlibs/" + Lib + "/runtime";
}

/// A loaded kernel: the dlopened shared object and its entry point (every
/// kernel here takes three float buffers: two inputs, then the output).
struct Loaded {
  using Fn = void (*)(float *, float *, float *);
  std::shared_ptr<void> Handle;
  Fn Entry = nullptr;
  void (*SimReset)(int) = nullptr;
  uint64_t (*SimCycles)() = nullptr;
};

Expected<ir::ProcRef> schedule(const Row &R) {
  switch (R.K) {
  case Kind::Sgemm: {
    auto K = apps::buildSgemm(R.M, R.N, R.KDim);
    if (!K)
      return K.error();
    return K->ExoSgemm;
  }
  case Kind::ConvX86: {
    auto K = apps::buildConvX86(R.Conv);
    if (!K)
      return K.error();
    return K->Scheduled;
  }
  case Kind::GemminiMatmul: {
    auto K = apps::buildGemminiMatmul(R.M, R.N, R.KDim);
    if (!K)
      return K.error();
    return K->ExoLib;
  }
  case Kind::GemminiConv: {
    auto K = apps::buildConvGemmini(R.Conv, /*RowTile=*/14);
    if (!K)
      return K.error();
    return K->Scheduled;
  }
  }
  return makeError(Error::Kind::Internal, "unknown kernel kind");
}

/// Where one set-up's time went.
struct SetupMs {
  double Build = 0, Codegen = 0;
  std::vector<double> Cc; ///< one per kernel
};

/// Set-up of one row: schedule, generate C, host-compile, load.
Expected<Loaded> prepare(const Row &R, uint64_t G, const std::string &Dir,
                         unsigned Serial, SetupMs &Ms) {
  Span SB("scheduling.build", G, R.Name);
  Expected<ir::ProcRef> P = schedule(R);
  Ms.Build += SB.end();
  if (!P)
    return P.error();
  Span SC("backend.codegen", G, R.Name);
  Expected<std::string> C = backend::generateC(*P);
  Ms.Codegen += SC.end();
  if (!C)
    return C.error();

  std::string Stem = Dir + "/" + R.Name + "_" + std::to_string(Serial);
  {
    std::ofstream Out(Stem + ".c");
    Out << *C;
  }
  std::string Cmd = "cc -O2 -march=native -std=gnu11 -shared -fPIC -I " +
                    runtimeDir("avx512") + " -I " + runtimeDir("gemmini") +
                    " -o " + Stem + ".so " + Stem + ".c";
  if (R.onSimulator())
    Cmd += " " + runtimeDir("gemmini") + "/gemmini_sim.c";
  Cmd += " -lm 2> " + Stem + ".err";
  {
    Span S("backend.cc", G, R.Name);
    int RC = std::system(Cmd.c_str());
    Ms.Cc.push_back(S.end());
    if (RC != 0)
      return makeError(Error::Kind::Internal,
                       R.Name + ": host compile failed (see " + Stem + ".err)");
  }

  Span S("backend.dlopen", G, R.Name);
  void *H = dlopen((Stem + ".so").c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H)
    return makeError(Error::Kind::Internal, R.Name + ": " + dlerror());
  Loaded L;
  L.Handle = std::shared_ptr<void>(H, [](void *X) { dlclose(X); });
  L.Entry = reinterpret_cast<Loaded::Fn>(dlsym(H, (*P)->name().c_str()));
  if (R.onSimulator()) {
    L.SimReset = reinterpret_cast<void (*)(int)>(dlsym(H, "gemmini_reset"));
    L.SimCycles = reinterpret_cast<uint64_t (*)()>(dlsym(H, "gemmini_cycles"));
  }
  if (!L.Entry || (R.onSimulator() && (!L.SimReset || !L.SimCycles)))
    return makeError(Error::Kind::Internal, R.Name + ": missing symbol");
  return L;
}

/// A row's seeded inputs, output buffer and sampled reference entries.
struct Data {
  std::vector<float> In0, In1, Out;
  std::vector<size_t> SampleIdx;
  std::vector<double> SampleRef, SampleTol;
};

/// Fills the inputs from \p Seed and computes the sampled references with
/// naive host loops. Simulator rows use small integers (exact on the
/// simulator's datapath); x86 rows use floats in [-1, 1]. The tolerance,
/// 1e-4 of the sum of the products' magnitudes, covers float rounding in
/// any summation order; a wrong index or a lost term is far larger.
Data makeData(const Row &R, uint64_t Seed) {
  Rng G(Seed);
  Data D;
  auto Fill = [&](std::vector<float> &V, size_t N) {
    V.resize(N);
    for (float &X : V)
      X = R.onSimulator() ? static_cast<float>(G.range(-2, 2))
                          : static_cast<float>(G.range(-1000, 1000)) / 1000.0f;
  };
  const int Samples = 64;
  if (R.K == Kind::Sgemm || R.K == Kind::GemminiMatmul) {
    Fill(D.In0, size_t(R.M * R.KDim));
    Fill(D.In1, size_t(R.KDim * R.N));
    D.Out.assign(size_t(R.M * R.N), 0.0f);
    for (int S = 0; S < Samples; ++S) {
      int64_t I = G.range(0, R.M - 1), J = G.range(0, R.N - 1);
      double Acc = 0, Mag = 0;
      for (int64_t K = 0; K < R.KDim; ++K) {
        double P = double(D.In0[I * R.KDim + K]) * D.In1[K * R.N + J];
        Acc += P;
        Mag += std::fabs(P);
      }
      D.SampleIdx.push_back(size_t(I * R.N + J));
      D.SampleRef.push_back(Acc);
      D.SampleTol.push_back(1e-4 * Mag + 1e-4);
    }
    return D;
  }
  // Convs: x[N][H][W][IC], w[3][3][IC][OC], y[N][OH][OW][OC]; the x86 conv
  // applies ReLU, the Gemmini conv does not.
  const apps::ConvShape &S = R.Conv;
  Fill(D.In0, size_t(S.N * S.H * S.W * S.IC));
  Fill(D.In1, size_t(9 * S.IC * S.OC));
  D.Out.assign(size_t(S.N * S.oh() * S.ow() * S.OC), 0.0f);
  for (int K = 0; K < Samples; ++K) {
    int64_t N = G.range(0, S.N - 1), OH = G.range(0, S.oh() - 1),
            OW = G.range(0, S.ow() - 1), OC = G.range(0, S.OC - 1);
    double Acc = 0, Mag = 0;
    for (int64_t KH = 0; KH < 3; ++KH)
      for (int64_t KW = 0; KW < 3; ++KW)
        for (int64_t IC = 0; IC < S.IC; ++IC) {
          double P =
              double(D.In0[((N * S.H + OH + KH) * S.W + OW + KW) * S.IC + IC]) *
              D.In1[((KH * 3 + KW) * S.IC + IC) * S.OC + OC];
          Acc += P;
          Mag += std::fabs(P);
        }
    if (R.K == Kind::ConvX86 && Acc < 0)
      Acc = 0;
    D.SampleIdx.push_back(
        size_t(((N * S.oh() + OH) * S.ow() + OW) * S.OC + OC));
    D.SampleRef.push_back(Acc);
    D.SampleTol.push_back(1e-4 * Mag + 1e-4);
  }
  return D;
}

bool outputMatches(const Data &D) {
  for (size_t S = 0; S < D.SampleIdx.size(); ++S)
    if (!(std::fabs(D.Out[D.SampleIdx[S]] - D.SampleRef[S]) <= D.SampleTol[S]))
      return false;
  return true;
}

/// One timed call: the output is cleared untimed first (the matmuls
/// accumulate into it).
double timedCall(const Row &R, uint64_t G, const Loaded &L, Data &D) {
  std::memset(D.Out.data(), 0, D.Out.size() * sizeof(float));
  Span S("kernel.call", G, R.Name);
  L.Entry(D.In0.data(), D.In1.data(), D.Out.data());
  return S.end();
}

/// The autotuner's scoring path (tuning::CostModel) on the hand-written
/// Fig. 4a schedule at 128^3, exocc-tune's default kernel: a cold JIT
/// lower (host cc at -O0), execute, verification against the host
/// reference, and the simulator's cycle count.
struct TunerScore {
  bool Ok = false;
  double Ms = 0;
  double Cycles = 0;
};

TunerScore scoreHandwritten() {
  const tuning::KernelShape Shape{128, 128, 128};
  auto Space = tuning::buildSearchSpace("gemmini_matmul", Shape);
  if (!Space || !Space->Handwritten)
    return {};
  backend::JitBackend::clearCache();
  tuning::CostModel CM(Shape, tuning::Metric::SimCycles);
  Span S("tuning.evaluate", newTraceGroup(), Space->Handwritten->name());
  tuning::EvalResult E = CM.evaluate(Space->Handwritten);
  return {E.Ok, S.end(), static_cast<double>(E.SimCycles)};
}

} // namespace

void perfbench::runKernelExec(const Options &O, Report &R, bool OutOfCache) {
  std::vector<Row> Rows = rowsFor(OutOfCache);
  std::vector<Data> Inputs;
  std::vector<uint64_t> Groups; // one trace group per kernel
  for (size_t I = 0; I < Rows.size(); ++I) {
    Inputs.push_back(makeData(Rows[I], O.Seed * 1000003ull + I));
    Groups.push_back(newTraceGroup());
  }

  // Set-up, from a cold compiler each time: what a user pays to get the
  // workload's kernels loaded.
  std::vector<Loaded> Kernels;
  std::vector<double> BuildMs, CodegenMs, CcMs;
  CompilerCounters Counters;
  unsigned Serial = 0;
  bool SetupOk = true;
  timeSetup(R, [&] {
    clearCompilerCaches();
    Kernels.clear();
    SetupMs Ms;
    CompilerCounters Before = CompilerCounters::now();
    for (size_t I = 0; I < Rows.size(); ++I) {
      Expected<Loaded> L =
          prepare(Rows[I], Groups[I], O.WorkDir, Serial++, Ms);
      if (!L) {
        std::fprintf(stderr, "perfbench: %s\n", L.error().str().c_str());
        SetupOk = false;
      }
      Kernels.push_back(L ? std::move(*L) : Loaded());
    }
    Counters = CompilerCounters::now().since(Before);
    BuildMs.push_back(Ms.Build);
    CodegenMs.push_back(Ms.Codegen);
    CcMs.insert(CcMs.end(), Ms.Cc.begin(), Ms.Cc.end());
  });
  R.info("threads", 1.0);
  R.check(SetupOk, "set-up failed for a kernel");
  if (!SetupOk)
    return;

  // Every x86 row once, checked, and timed to size its share of a round.
  std::vector<size_t> Timed;
  std::vector<unsigned> CallsPerRound(Rows.size(), 1);
  std::vector<std::vector<double>> CallMs(Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (Rows[I].onSimulator())
      continue;
    double Ms = timedCall(Rows[I], Groups[I], Kernels[I], Inputs[I]);
    R.check(outputMatches(Inputs[I]),
            Rows[I].Name + ": sampled outputs differ from the naive reference");
    Timed.push_back(I);
    // About 20 ms of calls per row per round, so small kernels collect
    // many samples and large ones at least one per round.
    CallsPerRound[I] = static_cast<unsigned>(std::max(1.0, 20.0 / Ms));
  }

  double End = nowMs() + O.Seconds * 1000.0;
  unsigned Rounds = 0;
  while (Rounds == 0 || nowMs() < End) {
    for (size_t I : Timed)
      for (unsigned C = 0; C < CallsPerRound[I]; ++C)
        CallMs[I].push_back(
            timedCall(Rows[I], Groups[I], Kernels[I], Inputs[I]));
    ++Rounds;
  }
  R.info("rounds", static_cast<double>(Rounds));
  // The last call of each row must still be right.
  for (size_t I : Timed)
    R.check(outputMatches(Inputs[I]),
            Rows[I].Name + ": sampled outputs differ after the timed loop");

  // Simulator rows: one call each on the software-controlled model.
  std::vector<double> SimCycles(Rows.size(), 0);
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (!Rows[I].onSimulator())
      continue;
    Kernels[I].SimReset(0); // EXO_GEMMINI_MODE_SW
    CallMs[I].push_back(timedCall(Rows[I], Groups[I], Kernels[I], Inputs[I]));
    SimCycles[I] = static_cast<double>(Kernels[I].SimCycles());
    R.check(outputMatches(Inputs[I]) && SimCycles[I] > 0,
            Rows[I].Name + ": sampled outputs differ from the naive reference");
  }

  TunerScore Tuner;
  if (!OutOfCache) {
    Tuner = scoreHandwritten();
    R.check(Tuner.Ok, "the tuner's cost model rejected the hand-written "
                      "gemmini matmul");
  }

  std::vector<double> P75, P90;
  for (size_t I : Timed) {
    P75.push_back(percentile(CallMs[I], 75));
    P90.push_back(percentile(CallMs[I], 90));
  }
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("op_ms.p75", geomean(P75), "ms");
  R.metric("op_ms.p90", geomean(P90), "ms");
  if (!O.Trace)
    return;

  reportCompilerCounters(R, Counters);
  R.metric("scheduling.build_ms", percentile(BuildMs, 50), "ms");
  R.metric("backend.codegen_ms", percentile(CodegenMs, 50), "ms");
  R.metric("backend.cc_ms", percentile(CcMs, 50), "ms");
  if (!OutOfCache) {
    R.metric("tuning.evaluate_ms", Tuner.Ms, "ms");
    R.metric("tuning.handwritten_cycles", Tuner.Cycles, "count");
  }
  // Per row, and per class of rows as the geomean over its rows.
  std::map<std::string, std::vector<double>> Classes;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &Rw = Rows[I];
    const std::string K = "kernel." + Rw.Name;
    if (Rw.onSimulator()) {
      // 256 MACs per cycle at peak (a 16x16 systolic array).
      double Util = 100.0 * Rw.macs() / (256.0 * SimCycles[I]);
      R.metric(K + ".exec_ms.p50", CallMs[I].front(), "ms");
      R.metric("hwlibs.gemmini." + Rw.Name + ".cycles", SimCycles[I], "count");
      R.metric("hwlibs.gemmini." + Rw.Name + ".util_pct", Util, "%");
      Classes[Rw.K == Kind::GemminiMatmul ? "gemmini_matmul_util_pct"
                                          : "gemmini_conv_util_pct"]
          .push_back(Util);
      continue;
    }
    double GFlops = 2.0 * Rw.macs() / (percentile(CallMs[I], 50) * 1e6);
    R.metric(K + ".exec_ms.p50", percentile(CallMs[I], 50), "ms");
    R.metric(K + ".exec_ms.p90", percentile(CallMs[I], 90), "ms");
    R.metric(K + ".gflops", GFlops, "GFLOP/s");
    if (Rw.K == Kind::ConvX86)
      Classes["conv_x86_gflops"].push_back(GFlops);
    else if (Rw.M != Rw.N || Rw.N != Rw.KDim)
      Classes["sgemm_gflops.skewed"].push_back(GFlops);
    else
      Classes[OutOfCache ? "sgemm_gflops.outcache" : "sgemm_gflops.incache"]
          .push_back(GFlops);
  }
  for (const auto &[Name, Vals] : Classes)
    R.metric(Name, geomean(Vals),
             Name.find("util") != std::string::npos ? "%" : "GFLOP/s");
}
