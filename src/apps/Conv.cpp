//===- apps/Conv.cpp -------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Conv.h"

#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "scheduling/Procedures.h"

#include <algorithm>

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

std::string S(int64_t V) { return std::to_string(V); }

/// NHWC conv2d, fused ReLU as a final pass over the output.
std::string convSource(const ConvShape &C, bool WithRelu) {
  std::string OH = S(C.oh()), OW = S(C.ow());
  std::string Src =
      "@proc\n"
      "def conv(x: f32[" + S(C.N) + ", " + S(C.H) + ", " + S(C.W) + ", " +
      S(C.IC) + "], "
      "w: f32[" + S(C.KH) + ", " + S(C.KW) + ", " + S(C.IC) + ", " +
      S(C.OC) + "], "
      "y: f32[" + S(C.N) + ", " + OH + ", " + OW + ", " + S(C.OC) + "]):\n"
      "    for n in seq(0, " + S(C.N) + "):\n"
      "        for oh in seq(0, " + OH + "):\n"
      "            for ow in seq(0, " + OW + "):\n"
      "                for kh in seq(0, " + S(C.KH) + "):\n"
      "                    for kw in seq(0, " + S(C.KW) + "):\n"
      "                        for ic in seq(0, " + S(C.IC) + "):\n"
      "                            for oc in seq(0, " + S(C.OC) + "):\n"
      "                                y[n, oh, ow, oc] += "
      "x[n, oh + kh, ow + kw, ic] * w[kh, kw, ic, oc]\n";
  if (WithRelu)
    Src += "    for n2 in seq(0, " + S(C.N) + "):\n"
           "        for oh2 in seq(0, " + OH + "):\n"
           "            for ow2 in seq(0, " + OW + "):\n"
           "                for oc2 in seq(0, " + S(C.OC) + "):\n"
           "                    y[n2, oh2, ow2, oc2] = "
           "max(y[n2, oh2, ow2, oc2], 0.0)\n";
  return Src;
}

} // namespace

Expected<ir::ProcRef> exo::apps::buildConvX86Algorithm(const ConvShape &Shape) {
  frontend::ParseEnv Env = hw::avx512::avx512Lib().Env;
  return frontend::parseProc(convSource(Shape, /*WithRelu=*/true), Env);
}

Expected<ir::ProcRef>
exo::apps::buildConvGemminiAlgorithm(const ConvShape &Shape) {
  frontend::ParseEnv Env = hw::gemmini::gemminiLib().Env;
  return frontend::parseProc(convSource(Shape, /*WithRelu=*/false), Env);
}

namespace {

/// Output pixels per register tile: the largest divisor of ow() that is
/// at most 6, so PT x 64 channels of accumulators (PT x 4 zmm) plus one
/// 64-wide weight row (4 zmm) fit the 32 vector registers.
int64_t pixelTile(const ConvShape &Shape) {
  for (int64_t PT = std::min<int64_t>(6, Shape.ow()); PT > 1; --PT)
    if (Shape.ow() % PT == 0)
      return PT;
  return 1;
}

Expected<ConvKernels> parseConvX86(const ConvShape &Shape) {
  auto Alg = buildConvX86Algorithm(Shape);
  if (!Alg)
    return Alg.error();
  ConvKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 13;
  return Out;
}

/// The common tail of both x86 schedules: vectorizes the fused-ReLU pass
/// in place, unrolls the register-resident loops \p Unroll of the inner
/// kernel (innermost first) and names the kernel.
void finishConvX86(Schedule &Sch, std::initializer_list<const char *> Unroll) {
  Sch.split("oc2", 16, "rv", "rl", SplitTail::Perfect)
      .simplify()
      .replaceWith("for rl in _: _", 1, hw::avx512::avx512Lib().ReluPs);
  for (const char *Loop : Unroll)
    Sch.unroll(Loop);
  Sch.simplify().rename("exo_conv_x86");
}

} // namespace

Expected<ConvKernels>
exo::apps::buildConvX86PixelTiled(const ConvShape &Shape) {
  const int64_t PT = pixelTile(Shape);
  if (Shape.OC % 64 || PT < 2)
    return makeError(Error::Kind::Scheduling,
                     "pixel-tiled conv x86 needs OC % 64 == 0 and ow() with "
                     "a divisor in [2, 6]");
  const auto &HW = hw::avx512::avx512Lib();
  auto Out = parseConvX86(Shape);
  if (!Out)
    return Out.error();

  std::string P = S(PT);
  Schedule Sch(Out->Algorithm);
  // Register tile: PT output pixels x 64 output channels.
  Sch.split("ow", PT, "owo", "owi", SplitTail::Perfect)
      .split("oc", 64, "oco", "oci", SplitTail::Perfect)
      // n oh owo owi kh kw ic oco oci: lift oco above the kernel window,
      .reorder("ic")
      .reorder("kw")
      .reorder("kh")
      .reorder("owi")
      // then sink owi below it: n oh owo oco kh kw ic owi oci.
      .reorder("owi")
      .reorder("owi")
      .reorder("owi")
      .simplify()
      // Keep the PT x 64 output tile in vector registers across the 3x3xIC
      // accumulation.
      .stage("for kh in _: _", 1,
             "y[n, oh, " + P + " * owo : " + P + " * owo + " + P +
                 ", 64 * oco : 64 * oco + 64]",
             "acc", "AVX512")
      // Load each 64-wide weight row once per ic; all PT pixels reuse it.
      .apply(
          [&](const ProcRef &Proc) {
            return stageAndVectorize(Proc, "for owi in _: _",
                                     "w[kh, kw, ic, 64 * oco : 64 * oco + 64]",
                                     "wvec", "AVX512", 16, "lv", "ll");
          },
          "stage_and_vectorize")
      // Vector shape for the zero-init, accumulation and copy-out loops.
      .split("i1 #0", 16, "zv", "zl", SplitTail::Perfect)
      .split("oci", 16, "ov", "ol", SplitTail::Perfect)
      .split("i1 #0", 16, "sv", "sl", SplitTail::Perfect)
      // Pack the weights into a 64-byte-aligned DRAM buffer, so no wvec
      // row load straddles two cache lines. After the splits, whose
      // "i1 #0" would otherwise find wp's copy-in loops; before
      // instruction selection, after which the wvec copy-in passes w to
      // a call and stage refuses to redirect it.
      .stage("for n in _: _", 1,
             "w[0 : " + S(Shape.KH) + ", 0 : " + S(Shape.KW) + ", 0 : " +
                 S(Shape.IC) + ", 0 : " + S(Shape.OC) + "]",
             "wp", "DRAM")
      .simplify()
      // Instruction selection.
      .replaceWith("for zl in _: _", 1, HW.ZeroPs)
      .replaceWith("for ll in _: _", 1, HW.LoaduPs)
      .replaceWith("for ol in _: _", 1, HW.FmaddBcastPs)
      .replaceWith("for sl in _: _", 1, HW.AccumPs);
  finishConvX86(Sch, {"ov", "owi", "lv", "zv", "sv"});
  if (!Sch)
    return Sch.error();
  Out->ScheduleSteps = Sch.steps();
  Out->Scheduled = Sch.take("pixel-tiled conv x86 schedule");
  return Out;
}

Expected<ConvKernels> exo::apps::buildConvX86(const ConvShape &Shape) {
  if (Shape.OC % 16)
    return makeError(Error::Kind::Scheduling, "conv x86 needs OC % 16 == 0");
  // Wherever the shape admits a pixel x channel tile, register-block the
  // conv so each weight load feeds PT FMAs instead of one.
  if (Shape.OC % 64 == 0 && pixelTile(Shape) > 1)
    return buildConvX86PixelTiled(Shape);
  const auto &HW = hw::avx512::avx512Lib();
  auto Out = parseConvX86(Shape);
  if (!Out)
    return Out.error();

  Schedule Sch(Out->Algorithm);
  // Keep the output-channel row in vector registers across the 3x3xIC
  // accumulation.
  Sch.stage("for kh in _: _", 1, "y[n, oh, ow, 0 : " + S(Shape.OC) + "]",
            "acc", "AVX512")
      // Vector shape for the accumulation, zero-init, and copy-out loops.
      .split("oc", 16, "ov", "ol", SplitTail::Perfect)
      .split("i0 #0", 16, "zv", "zl", SplitTail::Perfect)
      .split("i0 #0", 16, "sv", "sl", SplitTail::Perfect)
      .simplify()
      // Instruction selection.
      .replaceWith("for zl in _: _", 1, HW.ZeroPs)
      .replaceWith("for ol in _: _", 1, HW.FmaddBcastPs)
      .replaceWith("for sl in _: _", 1, HW.AccumPs);
  finishConvX86(Sch, {"ov"});
  if (!Sch)
    return Sch.error();
  Out->ScheduleSteps = Sch.steps();
  Out->Scheduled = Sch.take("conv x86 schedule");
  return Out;
}

Expected<ConvKernels> exo::apps::buildConvGemmini(const ConvShape &Shape,
                                                  int64_t RowTile) {
  if (Shape.OC % 16 || Shape.IC % 16)
    return makeError(Error::Kind::Scheduling,
                     "conv gemmini needs OC, IC % 16 == 0");
  if (RowTile <= 0 || RowTile > 16 || Shape.ow() % RowTile)
    return makeError(Error::Kind::Scheduling,
                     "conv gemmini needs ow() divisible by RowTile <= 16");
  const auto &HW = hw::gemmini::gemminiLib();

  frontend::ParseEnv Env = HW.Env;
  auto Alg = frontend::parseProc(convSource(Shape, /*WithRelu=*/false), Env);
  if (!Alg)
    return Alg.error();

  ConvKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 9;

  std::string TW = S(RowTile);

  Schedule Sch(*Alg);
  // Tile output rows (pixels along ow) and both channel dimensions.
  Sch.split("ow", RowTile, "owo", "owi", SplitTail::Perfect)
      .split("oc", 16, "oco", "oci", SplitTail::Perfect)
      .split("ic", 16, "ico", "ici", SplitTail::Perfect)
      // Order after the splits: n, oh, owo, owi, kh, kw, ico, ici, oco,
      // oci. Target: n, oh, owo, kh, kw, ico, oco, owi, oci, ici — the
      // kernel window and input-channel loops enclose the output channels,
      // so the staged input patch is reused across every oco tile (the
      // data reuse the paper's conv schedule exploits).
      .reorder("ici") // ici <-> oco
      .reorder("ici") // ici <-> oci
      .reorder("owi") // owi <-> kh
      .reorder("owi") // owi <-> kw
      .reorder("owi") // owi <-> ico
      .reorder("owi") // owi <-> oco
      .simplify()
      // Stage the full-width output row strip (RowTile x OC) in the
      // accumulator across the kernel window.
      .stage("for kh in _: _", 1,
             "y[n, oh, " + TW + " * owo : " + TW + " * owo + " + TW +
                 ", 0 : " + S(Shape.OC) + "]",
             "res", "GEMM_ACC")
      // Stage the input patch once per (kh, kw, ic-tile) — outside the
      // oco loop — and the weight tile per oco tile.
      .stage("for oco in _: _", 1,
             "x[n, oh + kh, " + TW + " * owo + kw : " + TW +
                 " * owo + kw + " + TW + ", 16 * ico : 16 * ico + 16]",
             "xp", "GEMM_SCRATCH")
      .stage("for owi in _: _", 1,
             "w[kh, kw, 16 * ico : 16 * ico + 16, "
             "16 * oco : 16 * oco + 16]",
             "wt", "GEMM_SCRATCH")
      // Shape the accumulator zero-init into 16-wide strips: split its
      // column loop and bring the strip loop outermost.
      .split("i1 #0", 16, "zv", "zl", SplitTail::Perfect)
      .reorder("i0 #0")
      .replaceWith("for i0 in _: _ #0", 1, HW.ZeroAcc)
      // Loads: channel 1 for the input patch, channel 2 for the weights.
      .configWriteAt("for i0 in _: _ #0", HW.CfgLd1, "src_stride",
                     "stride(x, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LdData)
      .configWriteAt("for i0 in _: _ #0", HW.CfgLd2, "src_stride",
                     "stride(w, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LdData2)
      .replaceWith("for owi in _: _", 1, HW.Matmul16)
      // Copy-out in 16-wide strips through the store unit.
      .split("i1 #0", 16, "sv", "sl", SplitTail::Perfect)
      .reorder("i0 #0")
      .configWriteAt("for i0 in _: _ #0", HW.CfgSt, "dst_stride",
                     "stride(y, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.StAcc)
      .replaceWith("ConfigLd1.src_stride = _", 1, HW.ConfigLd1)
      .replaceWith("ConfigLd2.src_stride = _", 1, HW.ConfigLd2)
      .replaceWith("ConfigSt.dst_stride = _", 1, HW.ConfigSt);
  if (!Sch)
    return Sch.error();
  Out.OldLib = renameProc(Sch.proc().take("conv gemmini schedule"),
                          "gemmini_conv_old");

  // Hoist all configuration to the top (the Exo schedule).
  Sch.hoistToTop("gemmini_config_ld1(_)")
      .hoistToTop("gemmini_config_ld2(_)")
      .hoistToTop("gemmini_config_st(_)")
      .rename("gemmini_conv_exo");
  if (!Sch)
    return Sch.error();
  Out.ScheduleSteps = Sch.steps();
  Out.Scheduled = Sch.take("conv gemmini schedule");
  return Out;
}
