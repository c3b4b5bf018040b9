//===- tests/BackendTest.cpp - Execution backend tests ---------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Tests for the pluggable execution backend API (src/backend/Backend.h):
// the registry and capability flags, source byte-identity between the
// csource and jit backends (and against raw generateC), a csource-vs-jit
// differential over the pinned fuzz corpus, the JIT module cache
// counters, in-process trap containment via the simulator fault hook,
// and the AMX matmul case study end-to-end through both backends.
//
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "apps/AmxMatmul.h"
#include "driver/KernelSuite.h"
#include "frontend/Parser.h"
#include "support/TempDir.h"
#include "testing/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;
// Not `using namespace exo::testing`: gtest owns ::testing.
namespace ftest = exo::testing;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

namespace {

ProcRef mustParse(const std::string &Src) {
  frontend::ParseEnv Env;
  auto P = frontend::parseProc(Src, Env);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

/// A tiny executable kernel: B[i] = A[i] + 1.
ProcRef addOneProc(const std::string &Name = "add_one") {
  return mustParse("@proc\n"
                   "def " + Name + "(A: R[8], B: R[8]):\n"
                   "    for i in seq(0, 8):\n"
                   "        B[i] = A[i] + 1.0\n");
}

/// Host-side fault hook handed to a module's simulator copy; returning
/// nonzero makes the next accelerator instruction raise INJECTED.
extern "C" int exoTestAlwaysFault() { return 1; }

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(BackendRegistry, BuiltinsRegisteredWithExpectedCaps) {
  Backend *Cs = findBackend("csource");
  Backend *Jit = findBackend("jit");
  ASSERT_NE(Cs, nullptr);
  ASSERT_NE(Jit, nullptr);
  EXPECT_EQ(Cs->name(), "csource");
  EXPECT_EQ(Jit->name(), "jit");

  EXPECT_TRUE(Cs->caps() & CapCanExecute);
  EXPECT_TRUE(Cs->caps() & CapTrapContainment);
  EXPECT_FALSE(Cs->caps() & CapInProcess); // spawns a child per call

  EXPECT_TRUE(Jit->caps() & CapCanExecute);
  EXPECT_TRUE(Jit->caps() & CapInProcess);
  EXPECT_TRUE(Jit->caps() & CapTrapContainment);

  EXPECT_EQ(findBackend("no-such-backend"), nullptr);

  std::vector<Backend *> All = allBackends();
  EXPECT_NE(std::find(All.begin(), All.end(), Cs), All.end());
  EXPECT_NE(std::find(All.begin(), All.end(), Jit), All.end());
}

//===----------------------------------------------------------------------===//
// Lowering: source identity and entry metadata
//===----------------------------------------------------------------------===//

TEST(BackendLower, SourceIsByteIdenticalAcrossBackendsAndGenerateC) {
  ProcRef P = addOneProc();
  auto Raw = generateC(P);
  ASSERT_TRUE(bool(Raw)) << Raw.error().str();

  auto Cs = csourceBackend().lower(P);
  ASSERT_TRUE(bool(Cs)) << Cs.error().str();
  auto Jit = jitBackend().lower(P);
  ASSERT_TRUE(bool(Jit)) << Jit.error().str();

  // The contract behind the golden snapshots: lower() never perturbs the
  // generated C. JIT trampolines go only into the compiled artifact.
  EXPECT_EQ((*Cs)->source(), *Raw);
  EXPECT_EQ((*Jit)->source(), *Raw);
  EXPECT_EQ((*Cs)->hash(), (*Jit)->hash());

  ASSERT_EQ((*Jit)->entries().size(), 1u);
  const EntryInfo *E = (*Jit)->findEntry("add_one");
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->Executable);
  EXPECT_EQ(E->Args.size(), 2u);
  EXPECT_EQ((*Jit)->findEntry("missing"), nullptr);
}

TEST(BackendLower, WindowArgumentEntriesAreNotExecutable) {
  ProcRef P = mustParse(R"(
@proc
def zero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)");
  auto M = jitBackend().lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  const EntryInfo *E = (*M)->findEntry("zero");
  ASSERT_NE(E, nullptr);
  EXPECT_FALSE(E->Executable);

  BufferSet Args; // execute() must refuse before touching the arguments
  ExecStatus S = jitBackend().execute(**M, "zero", Args);
  EXPECT_EQ(S.Kind, ExecKind::Unsupported);
}

TEST(BackendLower, DuplicateEntryNamesAreRejected) {
  ProcRef A = addOneProc();
  ProcRef B = addOneProc(); // distinct proc, same C symbol
  auto M = csourceBackend().lower({A, B});
  ASSERT_FALSE(bool(M));
  EXPECT_NE(M.error().message().find("duplicate entry name"),
            std::string::npos)
      << M.error().str();
}

//===----------------------------------------------------------------------===//
// Execution: both backends, bit-identical results
//===----------------------------------------------------------------------===//

TEST(BackendExec, SimpleKernelBitIdenticalAcrossBackends) {
  ProcRef P = addOneProc();
  float In[8] = {0, 1, 2, 3, -4, 5.5f, -6.25f, 7};

  std::vector<std::vector<float>> Outs;
  for (Backend *BE : {static_cast<Backend *>(&csourceBackend()),
                      static_cast<Backend *>(&jitBackend())}) {
    auto M = BE->lower(P);
    ASSERT_TRUE(bool(M)) << BE->name() << ": " << M.error().str();
    std::vector<float> A(In, In + 8), B(8, -1.0f);
    BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                      RunArg::buffer(B.data(), B.size() * sizeof(float))};
    ExecStatus S = BE->execute(**M, "add_one", Args);
    ASSERT_TRUE(S.ok()) << BE->name() << ": " << execKindName(S.Kind) << ": "
                        << S.Detail;
    Outs.push_back(B);
  }
  ASSERT_EQ(Outs.size(), 2u);
  EXPECT_EQ(0, std::memcmp(Outs[0].data(), Outs[1].data(), 8 * sizeof(float)));
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Outs[1][I], In[I] + 1.0f);
}

TEST(BackendExec, ArgumentCountMismatchIsAnError) {
  ProcRef P = addOneProc();
  auto M = jitBackend().lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  BufferSet Args = {RunArg::control(3)};
  ExecStatus S = jitBackend().execute(**M, "add_one", Args);
  EXPECT_EQ(S.Kind, ExecKind::Error);
  ExecStatus S2 = jitBackend().execute(**M, "nope", Args);
  EXPECT_EQ(S2.Kind, ExecKind::Error);
}

//===----------------------------------------------------------------------===//
// Differential: pinned corpus and the kernel suite across backends
//===----------------------------------------------------------------------===//

TEST(BackendDifferential, PinnedCorpusAgreesAcrossBackends) {
  std::string Dir = EXO_SOURCE_DIR "/tests/corpus";
  ASSERT_TRUE(std::filesystem::is_directory(Dir));
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".fuzz")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 20u);

  std::vector<ftest::OracleCase> Cases;
  for (const std::string &F : Files) {
    auto Case = ftest::readCorpusFile(F);
    ASSERT_TRUE(Case) << F << ": " << Case.error().str();
    auto OC = ftest::materializeCorpus(*Case);
    ASSERT_TRUE(OC) << F << ": " << OC.error().str();
    Cases.push_back(*OC);
  }

  std::vector<std::vector<ftest::OracleOutcome>> PerBackend;
  for (const char *Name : {"csource", "jit"}) {
    ftest::OracleOptions O;
    O.Backend = Name;
    auto Out = ftest::runOracle(Cases, O);
    ASSERT_TRUE(Out) << Name << ": " << Out.error().str();
    PerBackend.push_back(*Out);
  }
  for (size_t I = 0; I < Cases.size(); ++I) {
    EXPECT_TRUE(PerBackend[0][I].ok())
        << Files[I] << " (csource): "
        << ftest::oracleStatusName(PerBackend[0][I].Status) << ": "
        << PerBackend[0][I].Detail;
    EXPECT_EQ(PerBackend[0][I].Status, PerBackend[1][I].Status)
        << Files[I] << ": csource vs jit disagree: "
        << ftest::oracleStatusName(PerBackend[0][I].Status) << " vs "
        << ftest::oracleStatusName(PerBackend[1][I].Status) << ": "
        << PerBackend[1][I].Detail;
  }
}

TEST(BackendDifferential, SuiteKernelsLowerIdenticallyInBothBackends) {
  std::vector<std::string> Names = driver::referenceNames();
  ASSERT_GE(Names.size(), 7u); // six paper kernels + amx_matmul
  for (const std::string &Name : Names) {
    auto Procs = driver::buildReference(Name);
    ASSERT_TRUE(bool(Procs)) << Name << ": " << Procs.error().str();
    auto Cs = csourceBackend().lower(*Procs);
    ASSERT_TRUE(bool(Cs)) << Name << ": " << Cs.error().str();
    auto Jit = jitBackend().lower(*Procs);
    ASSERT_TRUE(bool(Jit)) << Name << ": " << Jit.error().str();
    EXPECT_EQ((*Cs)->source(), (*Jit)->source()) << Name;
    EXPECT_EQ((*Cs)->hash(), (*Jit)->hash()) << Name;
  }
}

//===----------------------------------------------------------------------===//
// JIT module cache
//===----------------------------------------------------------------------===//

TEST(JitCache, HitsAndEvictionsAreCounted) {
  JitBackend &BE = jitBackend();
  JitBackend::clearCache();
  JitBackend::CacheStats Before = JitBackend::cacheStats();

  ProcRef P = addOneProc("cache_probe");
  float Buf[8] = {0};
  auto runOnce = [&]() {
    auto M = BE.lower(P); // fresh LoweredModule, same content hash
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 1.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ExecStatus S = BE.execute(**M, "cache_probe", Args);
    ASSERT_TRUE(S.ok()) << S.Detail;
  };
  runOnce();
  runOnce();
  JitBackend::CacheStats St = JitBackend::cacheStats().since(Before);
  EXPECT_EQ(St.Compiles, 1u); // second run was a content-hash hit
  EXPECT_GE(St.Hits, 1u);

  // Shrink the cache to one slot and compile two distinct modules: the
  // first must be LRU-evicted.
  JitBackend::setCacheCapacity(1);
  for (const char *Name : {"evict_a", "evict_b"}) {
    ProcRef Q = addOneProc(Name);
    auto M = BE.lower(Q);
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 0.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ASSERT_TRUE(BE.execute(**M, Name, Args).ok());
  }
  St = JitBackend::cacheStats().since(Before);
  EXPECT_GE(St.Evictions, 1u);
  JitBackend::setCacheCapacity(64); // restore the default for later tests
}

TEST(JitCache, CacheSaltPartitionsTenantsInTheModuleCache) {
  JitBackend &BE = jitBackend();
  JitBackend::clearCache();

  ProcRef P = addOneProc("salted_probe");

  LowerOptions Unsalted;
  LowerOptions TenantA;
  TenantA.CacheSalt = "tenant-a";
  LowerOptions TenantB;
  TenantB.CacheSalt = "tenant-b";

  auto M0 = BE.lower(P, Unsalted);
  auto MA = BE.lower(P, TenantA);
  auto MB = BE.lower(P, TenantB);
  ASSERT_TRUE(bool(M0)) << M0.error().str();
  ASSERT_TRUE(bool(MA)) << MA.error().str();
  ASSERT_TRUE(bool(MB)) << MB.error().str();

  // Same byte-identical C under every salt ...
  EXPECT_EQ((*M0)->source(), (*MA)->source());
  EXPECT_EQ((*MA)->source(), (*MB)->source());

  // ... but pairwise-distinct content hashes: the cache key includes the
  // tenant, so an unloaded module can never be resurrected for a
  // different tenant by content-hash collision.
  EXPECT_NE((*M0)->hash(), (*MA)->hash());
  EXPECT_NE((*M0)->hash(), (*MB)->hash());
  EXPECT_NE((*MA)->hash(), (*MB)->hash());

  // The empty salt preserves the legacy plain-source hash — golden
  // snapshots and the cross-backend hash equality above depend on it.
  auto Cs = csourceBackend().lower(P);
  ASSERT_TRUE(bool(Cs)) << Cs.error().str();
  EXPECT_EQ((*M0)->hash(), (*Cs)->hash());

  // Executing the same source for two tenants compiles two distinct
  // cached modules; re-executing per tenant hits that tenant's entry.
  float Buf[8] = {0};
  auto runAs = [&](const LowerOptions &LO) {
    auto M = BE.lower(P, LO);
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 1.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ExecStatus S = BE.execute(**M, "salted_probe", Args);
    ASSERT_TRUE(S.ok()) << S.Detail;
    EXPECT_EQ(B[0], 2.0f); // identical behavior regardless of tenant
  };
  JitBackend::CacheStats Before = JitBackend::cacheStats();
  runAs(TenantA);
  runAs(TenantB);
  runAs(TenantA);
  runAs(TenantB);
  JitBackend::CacheStats St = JitBackend::cacheStats().since(Before);
  EXPECT_EQ(St.Compiles, 2u); // one artifact per tenant, not one shared
  EXPECT_GE(St.Hits, 2u);     // repeats stay within their own tenant
}

//===----------------------------------------------------------------------===//
// Trap containment in-process
//===----------------------------------------------------------------------===//

TEST(JitTrap, InjectedSimFaultIsContained) {
  // An AMX kernel whose module carries its own amx_sim copy; injecting a
  // fault through that copy's hook must fail the call with ExecKind::Trap
  // and leave this process alive.
  auto K = apps::buildAmxMatmul(16, 16, 16);
  ASSERT_TRUE(bool(K)) << K.error().str();
  JitBackend &BE = jitBackend();
  auto M = BE.lower(K->Hoisted);
  ASSERT_TRUE(bool(M)) << M.error().str();

  using FaultFn = int (*)();
  auto SetFault =
      reinterpret_cast<void (*)(FaultFn)>(BE.moduleSymbol(**M, "amx_set_fault_fn"));
  ASSERT_NE(SetFault, nullptr) << "module is missing its amx_sim copy";

  std::vector<float> A(16 * 16, 1.0f), B(16 * 16, 1.0f), C(16 * 16, 0.0f);
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float)),
                    RunArg::buffer(C.data(), C.size() * sizeof(float))};

  SetFault(exoTestAlwaysFault);
  ExecStatus S = BE.execute(**M, K->Hoisted->name(), Args);
  SetFault(nullptr);
  EXPECT_EQ(S.Kind, ExecKind::Trap);
  EXPECT_NE(S.Detail.find("sim trap"), std::string::npos) << S.Detail;

  // The same module runs clean once the hook is gone.
  std::fill(C.begin(), C.end(), 0.0f);
  ExecStatus S2 = BE.execute(**M, K->Hoisted->name(), Args);
  EXPECT_TRUE(S2.ok()) << execKindName(S2.Kind) << ": " << S2.Detail;
}

//===----------------------------------------------------------------------===//
// AMX matmul end-to-end
//===----------------------------------------------------------------------===//

TEST(AmxMatmul, EndToEndBothBackendsMatchNaiveReference) {
  const int64_t N = 32, M = 32, K = 32;
  auto Kr = apps::buildAmxMatmul(N, M, K);
  ASSERT_TRUE(bool(Kr)) << Kr.error().str();

  // Small exact integers: float accumulation is exact, so bit-identity
  // across backends and against the host reference is a fair demand.
  std::vector<float> A(N * K), B(K * M);
  uint32_t S = 12345;
  auto nextVal = [&S]() {
    S = S * 1103515245u + 12345u;
    return static_cast<float>(static_cast<int>((S >> 16) % 7) - 3);
  };
  for (float &V : A)
    V = nextVal();
  for (float &V : B)
    V = nextVal();

  std::vector<float> Ref(N * M, 0.0f);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < M; ++J)
      for (int64_t L = 0; L < K; ++L)
        Ref[I * M + J] += A[I * K + L] * B[L * M + J];

  for (const ProcRef &P : {Kr->PerTile, Kr->Hoisted}) {
    for (Backend *BE : {static_cast<Backend *>(&csourceBackend()),
                        static_cast<Backend *>(&jitBackend())}) {
      auto Mod = BE->lower(P);
      ASSERT_TRUE(bool(Mod)) << BE->name() << ": " << Mod.error().str();
      std::vector<float> Av = A, Bv = B, Cv(N * M, 0.0f);
      BufferSet Args = {RunArg::buffer(Av.data(), Av.size() * sizeof(float)),
                        RunArg::buffer(Bv.data(), Bv.size() * sizeof(float)),
                        RunArg::buffer(Cv.data(), Cv.size() * sizeof(float))};
      ExecStatus St = BE->execute(**Mod, P->name(), Args);
      ASSERT_TRUE(St.ok()) << P->name() << " via " << BE->name() << ": "
                           << execKindName(St.Kind) << ": " << St.Detail;
      EXPECT_EQ(0, std::memcmp(Cv.data(), Ref.data(),
                               Cv.size() * sizeof(float)))
          << P->name() << " via " << BE->name()
          << " diverged from the naive reference";
    }
  }
}
