//===- tests/CodeGenTest.cpp - C code generator tests ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"

#include "apps/Conv.h"
#include "apps/Sgemm.h"
#include "backend/Backend.h"
#include "backend/Checks.h"
#include "backend/Memory.h"
#include "hwlibs/amx/AmxLib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "interp/Interp.h"
#include "scheduling/Schedule.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;
using frontend::ParseEnv;
using frontend::parseModule;
using frontend::parseProc;

namespace {

ProcRef mustParse(const std::string &Src, ParseEnv *Env = nullptr) {
  ParseEnv Local;
  auto P = parseProc(Src, Env ? *Env : Local);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

TEST(CodeGenTest, EmitsReadableGemm) {
  ProcRef P = mustParse(R"(
@proc
def gemm(n: size, A: R[n, n], B: R[n, n], C: R[n, n]):
    assert n > 0
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
)");
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("void gemm(int_fast32_t n, float *A, float *B, "
                    "float *C)"),
            std::string::npos)
      << *C;
  EXPECT_NE(C->find("for (int_fast32_t i = 0; i < n; i++)"),
            std::string::npos)
      << *C;
  EXPECT_NE(C->find("EXO_ASSUME((n > 0));"), std::string::npos) << *C;
  EXPECT_NE(C->find("C[(i) * (n) + j] += (float)"), std::string::npos)
      << *C;
}

TEST(CodeGenTest, WindowsBecomeStructs) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def zero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8]):
    for j in seq(0, 8):
        zero(8, x[0:8, j])
)",
                        &Env);
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("typedef struct exo_win_1f32"), std::string::npos) << *C;
  EXPECT_NE(C->find("exo_win_1f32 v"), std::string::npos) << *C;
  EXPECT_NE(C->find("v.data["), std::string::npos) << *C;
  EXPECT_NE(C->find(".strides["), std::string::npos) << *C;
}

TEST(CodeGenTest, InstrCallsExpandTemplates) {
  ParseEnv Env;
  auto Lib = parseModule(R"x(
@instr("hw_mvin({n}, {dst}.data, {src}.data);", "// gemmini intrinsics")
def mvin(n: size, dst: [R][n] @ SCRATCH, src: [R][n]):
    for i in seq(0, n):
        dst[i] = src[i]
)x",
                         Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16], buf: R[16] @ SCRATCH):
    mvin(16, buf[0:16], x[0:16])
)",
                        &Env);
  // SCRATCH must exist for backend checks; register a non-addressable one.
  MemoryRegistry::instance().add(
      std::make_shared<Memory>("SCRATCH", /*Addressable=*/false));
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("// gemmini intrinsics"), std::string::npos) << *C;
  EXPECT_NE(C->find("hw_mvin(16,"), std::string::npos) << *C;
  EXPECT_EQ(C->find("void mvin"), std::string::npos)
      << "instructions must not be emitted as functions\n"
      << *C;
}

TEST(CodeGenTest, NonAddressableMemoryRejected) {
  MemoryRegistry::instance().add(
      std::make_shared<Memory>("LOCKED", /*Addressable=*/false));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    buf : R[8] @ LOCKED
    for i in seq(0, 8):
        buf[i] = x[i]
)");
  auto C = generateC(P);
  ASSERT_FALSE(bool(C));
  EXPECT_EQ(C.error().kind(), Error::Kind::Backend);
}

/// The buffer each exo_mm512_loadu_ps call in \p C reads: the name in
/// its source window, `..., &(exo_win_1f32){ &(NAME[...]), ... }...);`.
std::vector<std::string> vectorLoadSources(const std::string &C) {
  const std::string Call = "exo_mm512_loadu_ps(", Src = "}.data[0], ";
  std::vector<std::string> Names;
  for (size_t At = C.find(Call); At != std::string::npos;
       At = C.find(Call, At + 1)) {
    size_t Begin = C.find("&(", C.find("{ ", C.find(Src, At))) + 2;
    Names.push_back(C.substr(Begin, C.find('[', Begin) - Begin));
  }
  return Names;
}

TEST(CodeGenTest, DramBuffersAre64ByteAligned) {
  // The DRAM allocation rule: stack arrays carry aligned(64), heap
  // buffers come from aligned_alloc(64, ...) with the byte size rounded
  // up to 64, and both are freed the way they were allocated.
  MemoryRef Dram = MemoryRegistry::instance().find("DRAM");
  ASSERT_TRUE(Dram);
  AllocInfo Small{"t", "float", {"6", "16"}, true, 96};
  EXPECT_EQ(Dram->allocCode(Small),
            "float t[(6) * (16)] __attribute__((aligned(64)));");
  EXPECT_EQ(Dram->freeCode(Small), "");
  AllocInfo Big{"bp", "float", {"192", "64"}, true, 192 * 64};
  EXPECT_EQ(Dram->allocCode(Big),
            "float *bp = (float *)aligned_alloc(64, ((192) * (64) * "
            "sizeof(float) + 63) / 64 * 64);");
  EXPECT_EQ(Dram->freeCode(Big), "free(bp);");
  AllocInfo Dynamic{"d", "double", {"n"}, false, 1};
  EXPECT_NE(Dram->allocCode(Dynamic).find(
                "aligned_alloc(64, ((n) * sizeof(double) + 63) / 64 * 64)"),
            std::string::npos);

  // The scratchpad and tile memories wrap the plain defaults: their
  // stack arrays are spelled as before.
  hw::gemmini::gemminiLib();
  hw::amx::amxLib();
  AllocInfo Tile{"res", "float", {"16", "16"}, true, 256};
  EXPECT_EQ(MemoryRegistry::instance().find("GEMM_ACC")->allocCode(Tile),
            "float res[(16) * (16)]; gemmini_acc_track(res, (16) * (16));");
  EXPECT_EQ(MemoryRegistry::instance().find("AMX_TILE")->allocCode(Tile),
            "float res[(16) * (16)]; amx_tile_track(res, (16) * (16));");
}

TEST(CodeGenTest, VectorLoadsReadOnlyAlignedPanels) {
  // The 192^3 SGEMM packs B into bp and the Fig. 6 conv packs w into wp:
  // every 64-byte vector load reads a compiler-allocated buffer, never
  // the caller's B or w, wherever the caller's arrays sit.
  auto Sgemm = apps::buildSgemm(192, 192, 192);
  ASSERT_TRUE(bool(Sgemm)) << Sgemm.error().str();
  auto Conv = apps::buildConvX86({5, 102, 82, 128, 128});
  ASSERT_TRUE(bool(Conv)) << Conv.error().str();
  for (auto [Proc, Panel] : {std::pair{Sgemm->ExoSgemm, "bp"},
                             std::pair{Conv->Scheduled, "wp"}}) {
    auto C = generateC(Proc);
    ASSERT_TRUE(bool(C)) << C.error().str();
    EXPECT_NE(C->find("aligned_alloc(64, "), std::string::npos) << *C;
    std::vector<std::string> Srcs = vectorLoadSources(*C);
    ASSERT_FALSE(Srcs.empty()) << *C;
    for (const std::string &Src : Srcs)
      EXPECT_EQ(Src, Panel) << *C;
  }
}

TEST(CodeGenTest, MixedPrecisionRejected) {
  using scheduling::setPrecision;
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8], z: R[8]):
    for i in seq(0, 8):
        z[i] = x[i] * y[i]
)");
  ProcRef Q = *setPrecision(P, "x", ScalarKind::I8);
  Q = *setPrecision(Q, "y", ScalarKind::F32);
  auto C = generateC(Q);
  ASSERT_FALSE(bool(C)) << "i8 * f32 must be rejected";
  EXPECT_EQ(C.error().kind(), Error::Kind::Backend);
}

TEST(CodeGenTest, ConfigStructsEmitted) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgG:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8], y: R[8]):
    CfgG.st = stride(x, 0)
    y[0] = 1.0
)",
                        &Env);
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("static struct exo_CfgG"), std::string::npos) << *C;
  EXPECT_NE(C->find("CfgG.st = "), std::string::npos) << *C;
}

//===----------------------------------------------------------------------===//
// Compile-and-run: generated C must agree with the interpreter. Both cases
// run through the csource backend (its own -O1 host compile and call
// harness), the one compile-and-run path the fuzz oracle also uses.
//===----------------------------------------------------------------------===//

/// Lowers \p P through the csource backend and calls it on \p Args.
void runOnCSource(const ProcRef &P, BufferSet &Args) {
  auto M = csourceBackend().lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  ExecStatus S = csourceBackend().execute(**M, P->name(), Args);
  ASSERT_TRUE(S.ok()) << execKindName(S.Kind) << ": " << S.Detail;
}

TEST(CodeGenExecTest, GeneratedGemmMatchesInterpreter) {
  const char *Src = R"(
@proc
def gemm(n: size, A: R[n, n], B: R[n, n], C: R[n, n]):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
)";
  ProcRef P = mustParse(Src);

  const int64_t N = 6;
  // Deterministic pseudo-random inputs, shared by both executions.
  std::vector<float> A(N * N), B(N * N), C(N * N, 0.0f);
  unsigned S = 12345;
  auto NextVal = [&S]() {
    S = S * 1103515245u + 12345u;
    return static_cast<float>((S >> 16) % 1000) / 250.0f - 2.0f;
  };
  for (auto &V : A)
    V = NextVal();
  for (auto &V : B)
    V = NextVal();
  BufferSet Args = {RunArg::control(N),
                    RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float)),
                    RunArg::buffer(C.data(), C.size() * sizeof(float))};
  runOnCSource(P, Args);
  if (HasFatalFailure())
    return;

  // Interpreter with the same inputs.
  std::vector<double> AD(A.begin(), A.end()), BD(B.begin(), B.end()),
      CD(N * N, 0.0);
  interp::Interp I;
  auto R = I.run(P, {interp::ArgValue::control(N),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(AD.data(), {N, N})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(BD.data(), {N, N})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(CD.data(), {N, N}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  for (int64_t K = 0; K < N * N; ++K)
    EXPECT_NEAR(C[K], CD[K], 1e-3) << "element " << K;
}

TEST(CodeGenExecTest, ScheduledGemmMatchesToo) {
  using namespace exo::scheduling;
  const char *Src = R"(
@proc
def gemm16(A: R[16, 16], B: R[16, 16], C: R[16, 16]):
    for i in seq(0, 16):
        for j in seq(0, 16):
            for k in seq(0, 16):
                C[i, j] += A[i, k] * B[k, j]
)";
  ProcRef P = mustParse(Src);
  ProcRef Q = *splitLoop(P, "for i in _: _", 4, "io", "ii",
                         SplitTail::Perfect);
  Q = *reorderLoops(Q, "for ii in _: _");
  Q = *stageMem(Q, "for ii in _: _", 1, "B[0:16, j:j+1]", "b_col");
  Q = *simplify(Q);

  std::vector<float> A(256), B(256), C(256, 0.0f);
  for (int I = 0; I < 256; ++I) {
    A[I] = float(I % 7) - 3.0f;
    B[I] = float(I % 5) - 2.0f;
  }
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float)),
                    RunArg::buffer(C.data(), C.size() * sizeof(float))};
  runOnCSource(Q, Args);
  if (HasFatalFailure())
    return;
  for (int I = 0; I < 256; ++I) {
    int Row = I / 16, Col = I % 16;
    double Want = 0;
    for (int K = 0; K < 16; ++K)
      Want += (double)((Row * 16 + K) % 7 - 3.0) *
              (double)((K * 16 + Col) % 5 - 2.0);
    EXPECT_NEAR(C[I], Want, 1e-3) << "element " << I;
  }
}

} // namespace
