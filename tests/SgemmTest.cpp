//===- tests/SgemmTest.cpp - x86 SGEMM app tests ---------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Sgemm.h"

#include "backend/CodeGen.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "scheduling/Procedures.h"

#include <gtest/gtest.h>

#include <random>

using namespace exo;
using namespace exo::ir;

namespace {

TEST(Avx512LibTest, LibraryParses) {
  const auto &HW = hw::avx512::avx512Lib();
  ASSERT_TRUE(HW.FmaddBcastPs);
  EXPECT_TRUE(HW.FmaddBcastPs->isInstr());
  ASSERT_TRUE(HW.MaskzLoaduPs);
  EXPECT_EQ(HW.MaskzLoaduPs->preds().size(), 1u);
}

TEST(SgemmAppTest, SchedulePipelineSucceeds) {
  auto K = apps::buildSgemm(12, 128, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::string S = printProc(K->ExoSgemm);
  EXPECT_NE(S.find("mm512_fmadd_bcast_ps("), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_loadu_ps("), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_zero_ps("), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_accum_ps("), std::string::npos) << S;
  // The register-block loops are unrolled away: no jv/ii loops remain.
  EXPECT_EQ(S.find("for jv"), std::string::npos) << S;
  EXPECT_EQ(S.find("for ii"), std::string::npos) << S;
}

/// Runs an M x N x K sgemm proc in the interpreter on fixed random
/// inputs; returns C.
std::vector<double> runSgemm(const ProcRef &P, int64_t M, int64_t N,
                             int64_t K) {
  std::mt19937 Rng(11);
  std::uniform_real_distribution<double> D(-1, 1);
  std::vector<double> A(M * K), B(K * N), C(M * N, 0.0);
  for (auto &V : A)
    V = D(Rng);
  for (auto &V : B)
    V = D(Rng);
  interp::Interp I;
  auto R = I.run(P, {interp::ArgValue::buffer(
                         interp::BufferView::dense(A.data(), {M, K})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(B.data(), {K, N})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(C.data(), {M, N}))});
  if (!R)
    fatalError("interp failed: " + R.error().str());
  return C;
}

void expectSameResult(const ProcRef &Ref, const ProcRef &Exo, int64_t M,
                      int64_t N, int64_t K) {
  std::vector<double> R = runSgemm(Ref, M, N, K);
  std::vector<double> E = runSgemm(Exo, M, N, K);
  ASSERT_EQ(R.size(), E.size());
  for (size_t I = 0; I < R.size(); ++I)
    ASSERT_NEAR(R[I], E[I], 1e-9) << "at " << I;
}

TEST(SgemmAppTest, ScheduledKernelMatchesReference) {
  const int64_t M = 12, N = 64, K = 24;
  auto Kr = apps::buildSgemm(M, N, K);
  ASSERT_TRUE(bool(Kr)) << Kr.error().str();
  expectSameResult(Kr->Algorithm, Kr->ExoSgemm, M, N, K);
}

TEST(SgemmCacheBlockTest, MatchesAlgorithmOnTinyShape) {
  const int64_t M = 12, N = 128, K = 64;
  auto Alg = apps::buildSgemmAlgorithm(M, N, K);
  ASSERT_TRUE(bool(Alg)) << Alg.error().str();
  auto Tiled = scheduling::tile2D(*Alg, "i", 6, 64, "io", "ii", "jo", "ji",
                                  scheduling::SplitTail::Perfect);
  ASSERT_TRUE(bool(Tiled)) << Tiled.error().str();
  auto Blocked =
      scheduling::cacheBlock(*Tiled, "io", "B", 16, "ko", "k", "bp");
  ASSERT_TRUE(bool(Blocked)) << Blocked.error().str();
  std::string S = printProc(*Blocked);
  // KC = 16 divides K; one 16 x 64 panel per (jo, ko), outside the row
  // tiles, which read only the panel.
  EXPECT_NE(S.find("for ko in seq(0, 4)"), std::string::npos) << S;
  EXPECT_NE(S.find("bp : f32[16, 64]"), std::string::npos) << S;
  EXPECT_LT(S.find("for ko"), S.find("for io"));
  EXPECT_LT(S.find("bp : f32"), S.find("for io"));
  EXPECT_EQ(S.find("B[", S.find("for io")), std::string::npos) << S;
  expectSameResult(*Alg, *Blocked, M, N, K);

  // The cursor entry point is the same rewrite.
  auto Row = scheduling::Cursor::find(*Tiled, "for io in _: _");
  ASSERT_TRUE(bool(Row)) << Row.error().str();
  auto ViaCursor = scheduling::cacheBlock(*Row, "B", 16, "ko", "k", "bp");
  ASSERT_TRUE(bool(ViaCursor)) << ViaCursor.error().str();
  EXPECT_EQ(printProc(*ViaCursor), S);
}

TEST(SgemmCacheBlockTest, PanelIsAsWideAsTheColumnTile) {
  const int64_t M = 12, N = 128, K = 64;
  auto Alg = apps::buildSgemmAlgorithm(M, N, K);
  ASSERT_TRUE(bool(Alg)) << Alg.error().str();
  auto Tiled = scheduling::tile2D(*Alg, "i", 6, 32, "io", "ii", "jo", "ji",
                                  scheduling::SplitTail::Perfect);
  ASSERT_TRUE(bool(Tiled)) << Tiled.error().str();
  auto Blocked =
      scheduling::cacheBlock(*Tiled, "io", "B", 16, "ko", "k", "bp");
  ASSERT_TRUE(bool(Blocked)) << Blocked.error().str();
  std::string S = printProc(*Blocked);
  EXPECT_NE(S.find("bp : f32[16, 32]"), std::string::npos) << S;
  expectSameResult(*Alg, *Blocked, M, N, K);
}

TEST(SgemmCacheBlockTest, RejectsANestThatIsNotTiled) {
  auto Alg = apps::buildSgemmAlgorithm(12, 128, 64);
  ASSERT_TRUE(bool(Alg)) << Alg.error().str();
  // Untiled, the selected k loop has no column-tile loop beneath it.
  EXPECT_FALSE(bool(
      scheduling::cacheBlock(*Alg, "k", "B", 16, "ko", "k", "bp")));
}

TEST(SgemmCacheBlockTest, BlockedKernelMatchesReference) {
  // The smallest kind of shape the footprint gate blocks: B is
  // 576 x 512 floats (1.125 MiB), so KC = 192 and the whole schedule
  // runs on top of the panel.
  const int64_t M = 6, N = 512, K = 576;
  auto Kr = apps::buildSgemm(M, N, K);
  ASSERT_TRUE(bool(Kr)) << Kr.error().str();
  std::string S = printProc(Kr->ExoSgemm);
  ASSERT_NE(S.find("bp : f32[192, 64]"), std::string::npos) << S;
  expectSameResult(Kr->Algorithm, Kr->ExoSgemm, M, N, K);
}

TEST(SgemmCacheBlockTest, PackOnlyKernelMatchesReference) {
  // The smallest kind of shape the pack-only tier packs: B is 128 x 128
  // floats (64 KiB, above L1d, below L2/2), so KC = K, the ko loop runs
  // once and the whole of B's column tile is one panel.
  const int64_t M = 96, N = 128, K = 128;
  auto Kr = apps::buildSgemm(M, N, K);
  ASSERT_TRUE(bool(Kr)) << Kr.error().str();
  std::string S = printProc(Kr->ExoSgemm);
  ASSERT_NE(S.find("bp : f32[128, 64]"), std::string::npos) << S;
  EXPECT_NE(S.find("for ko in seq(0, 1)"), std::string::npos) << S;
  expectSameResult(Kr->Algorithm, Kr->ExoSgemm, M, N, K);
}

TEST(SgemmCacheBlockTest, FootprintGateSelectsThePanel) {
  // The panel's declaration, or "" when B stays unpacked.
  auto PanelOf = [](int64_t M, int64_t N, int64_t K) {
    auto Kr = apps::buildSgemm(M, N, K);
    if (!Kr)
      fatalError("sgemm schedule failed: " + Kr.error().str());
    std::string S = printProc(Kr->ExoSgemm);
    size_t At = S.find("bp : f32[");
    return At == std::string::npos ? std::string()
                                   : S.substr(At, S.find(']', At) + 1 - At);
  };
  // B beyond L2/2: KC-blocked panels.
  EXPECT_EQ(PanelOf(768, 768, 768), "bp : f32[256, 64]");
  EXPECT_EQ(PanelOf(126, 2048, 512), "bp : f32[256, 64]");
  // B between L1d and L2/2: packed whole (KC = K) for the aligned panel.
  EXPECT_EQ(PanelOf(384, 384, 384), "bp : f32[384, 64]");
  EXPECT_EQ(PanelOf(510, 512, 512), "bp : f32[512, 64]");
  // B within L1d (32 and 48 KiB): the suite's shapes stay unpacked.
  EXPECT_EQ(PanelOf(48, 128, 64), "");
  EXPECT_EQ(PanelOf(24, 192, 64), "");
  // B outgrows L2/2, but K's largest divisor <= 256 is below 16: a prime
  // K (no divisor at all), K = 2 * 521 (KC would be 2). Neither tier
  // packs them. K = 16 * 257 has KC = 16 and is blocked.
  EXPECT_EQ(PanelOf(6, 512, 1031), "");
  EXPECT_EQ(PanelOf(6, 512, 1042), "");
  EXPECT_EQ(PanelOf(6, 512, 4112), "bp : f32[16, 64]");
}

TEST(SgemmAppTest, GeneratesVectorC) {
  auto K = apps::buildSgemm(6, 64, 16);
  ASSERT_TRUE(bool(K)) << K.error().str();
  auto C = backend::generateC(K->ExoSgemm);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("#include \"avx512_sim.h\""), std::string::npos);
  EXPECT_NE(C->find("exo_mm512_fmadd_bcast_ps("), std::string::npos) << *C;
  EXPECT_NE(C->find("aligned(64)"), std::string::npos) << *C;
}

} // namespace
