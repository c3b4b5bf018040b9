//===- tests/ConvTest.cpp - Convolution app tests --------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Conv.h"

#include "backend/CodeGen.h"
#include "interp/Interp.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <random>

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;

namespace {

/// Runs a conv proc on random data; returns y.
std::vector<double> runConv(const ProcRef &P, const ConvShape &S,
                            bool ApplyReluAfter) {
  std::mt19937 Rng(5);
  std::uniform_real_distribution<double> D(-1, 1);
  std::vector<double> X(S.N * S.H * S.W * S.IC), W(S.KH * S.KW * S.IC * S.OC),
      Y(S.N * S.oh() * S.ow() * S.OC, 0.0);
  for (auto &V : X)
    V = D(Rng);
  for (auto &V : W)
    V = D(Rng);
  interp::Interp I;
  auto R = I.run(
      P, {interp::ArgValue::buffer(
              interp::BufferView::dense(X.data(), {S.N, S.H, S.W, S.IC})),
          interp::ArgValue::buffer(
              interp::BufferView::dense(W.data(), {S.KH, S.KW, S.IC, S.OC})),
          interp::ArgValue::buffer(interp::BufferView::dense(
              Y.data(), {S.N, S.oh(), S.ow(), S.OC}))});
  if (!R)
    fatalError("interp failed: " + R.error().str());
  if (ApplyReluAfter)
    for (auto &V : Y)
      V = V > 0 ? V : 0;
  return Y;
}

TEST(ConvX86Test, SchedulePipelineSucceeds) {
  ConvShape S{1, 6, 6, 16, 32};
  auto K = buildConvX86(S);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::string Printed = printProc(K->Scheduled);
  EXPECT_NE(Printed.find("mm512_fmadd_bcast_ps("), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("mm512_relu_ps("), std::string::npos) << Printed;
}

TEST(ConvX86Test, MatchesReference) {
  ConvShape S{1, 6, 6, 8, 16};
  auto K = buildConvX86(S);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::vector<double> Ref = runConv(K->Algorithm, S, false);
  std::vector<double> Exo = runConv(K->Scheduled, S, false);
  ASSERT_EQ(Ref.size(), Exo.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(Ref[I], Exo[I], 1e-9) << "at " << I;
}

TEST(ConvX86Test, PixelTiledMatchesReference) {
  // ow = 10, so the pixel tile is 5; OC = 64 is one channel tile.
  ConvShape S{1, 3, 12, 16, 64};
  auto K = buildConvX86PixelTiled(S);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::string Printed = printProc(K->Scheduled);
  EXPECT_NE(Printed.find("acc : f32[5, 64] @ AVX512"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("wvec : f32[64] @ AVX512"), std::string::npos)
      << Printed;
  // The weights are packed into the aligned buffer wp, and the weight
  // rows are loaded from there, never from the argument w.
  EXPECT_NE(Printed.find("wp : f32[3, 3, 16, 64]"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("mm512_loadu_ps(wvec[0:16], wp["), std::string::npos)
      << Printed;
  EXPECT_EQ(Printed.find(", w["), std::string::npos) << Printed;
  std::vector<double> Ref = runConv(K->Algorithm, S, false);
  std::vector<double> Exo = runConv(K->Scheduled, S, false);
  ASSERT_EQ(Ref.size(), Exo.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(Ref[I], Exo[I], 1e-9) << "at " << I;
}

TEST(ConvX86Test, PixelTiledNeedsAChannelAndPixelTile) {
  EXPECT_FALSE(bool(buildConvX86PixelTiled({1, 3, 12, 16, 32}))); // OC 32
  EXPECT_FALSE(bool(buildConvX86PixelTiled({1, 3, 9, 16, 64})));  // ow 7
}

TEST(ConvX86Test, ShapeSelectsThePixelTile) {
  // The pixel-tiled schedule loads wvec rows, from the packed wp; the
  // plain one does neither.
  auto PixelTiled = [](const ConvShape &S) {
    auto K = buildConvX86(S);
    if (!K)
      fatalError("conv schedule failed: " + K.error().str());
    std::string Printed = printProc(K->Scheduled);
    bool Tiled = Printed.find("wvec") != std::string::npos;
    EXPECT_EQ(Tiled, Printed.find("wp : f32[") != std::string::npos)
        << Printed;
    return Tiled;
  };
  // The Fig. 6 layer (PT 5) and a small OC = 64 conv (PT 5).
  EXPECT_TRUE(PixelTiled({5, 102, 82, 128, 128}));
  EXPECT_TRUE(PixelTiled({1, 3, 12, 16, 64}));
  // The kernel-suite conv (OC 32) and an ow = 7 conv (no PT in [2, 6]).
  EXPECT_FALSE(PixelTiled({1, 8, 8, 16, 32}));
  EXPECT_FALSE(PixelTiled({1, 3, 9, 16, 64}));
}

TEST(ConvX86Test, GeneratesC) {
  ConvShape S{1, 6, 6, 16, 16};
  auto K = buildConvX86(S);
  ASSERT_TRUE(bool(K)) << K.error().str();
  auto C = backend::generateC(K->Scheduled);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("exo_mm512_relu_ps("), std::string::npos) << *C;
}

TEST(ConvGemminiTest, SchedulePipelineSucceeds) {
  ConvShape S{1, 10, 10, 16, 16}; // ow = 8
  auto K = buildConvGemmini(S, /*RowTile=*/8);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::string Printed = printProc(K->Scheduled);
  EXPECT_NE(Printed.find("gemmini_matmul16("), std::string::npos) << Printed;
  // Configs hoisted to the top.
  size_t FirstLoop = Printed.find("for ");
  EXPECT_LT(Printed.find("gemmini_config_ld1"), FirstLoop) << Printed;
  EXPECT_LT(Printed.find("gemmini_config_st"), FirstLoop) << Printed;
}

TEST(ConvGemminiTest, MatchesReference) {
  ConvShape S{1, 10, 10, 16, 16};
  auto K = buildConvGemmini(S, 8);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::vector<double> Ref = runConv(K->Algorithm, S, false);
  std::vector<double> Exo = runConv(K->Scheduled, S, false);
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(Ref[I], Exo[I], 1e-9) << "at " << I;
}

} // namespace
