//===- apps/Sgemm.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Sgemm.h"

#include "hwlibs/avx512/Avx512Lib.h"
#include "scheduling/Procedures.h"

#include <algorithm>

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;
using hw::avx512::avx512Lib;

namespace {

/// Per-core L2 of the AVX-512 host this schedule is tuned for (a Xeon
/// with 2 MiB of L2 per core). A B larger than half of it no longer stays
/// in L2 beside the A and C rows the micro-kernel streams, so it is
/// cache-blocked.
constexpr int64_t L2Bytes = int64_t(2) << 20;

/// Per-core L1d of that host. A B up to this size is re-read from L1
/// where its rows sit; a larger one is packed into a 64-byte-aligned
/// panel so no B row load straddles two cache lines (glibc hands out
/// large caller buffers at page + 16). Measured on that host with
/// operands at 16 mod 64 (median of 4000 interleaved calls): packing the
/// 32 and 48 KiB B of 48 x 128 x 64 and 24 x 192 x 64 cost 2% and 8%,
/// while 96 x 128 x 128 (64 KiB) and 96 x 192 x 96 (72 KiB) gained 9%
/// and 10%.
constexpr int64_t L1dBytes = int64_t(48) << 10;

/// Reduction-block (KC) bounds for the B panels: KC is the largest
/// divisor of K up to MaxKC; below MinKC the acc copy-in/out every KC
/// steps eats what the panel saves. On that host, blocking a 768^3 or
/// 384 x 512 x 2048 SGEMM with KC = 8 was about as fast as not blocking,
/// with KC = 16 1.3-1.5x faster, and 96 x 512 x 4112
/// (K = 16 * 257) went from 40 to 94 GFLOP/s.
constexpr int64_t MaxKC = 256, MinKC = 16;

int64_t largestDivisorAtMost(int64_t N, int64_t Max) {
  for (int64_t D = std::min(Max, N); D > 1; --D)
    if (N % D == 0)
      return D;
  return 1;
}

std::string algorithmSource(int64_t M, int64_t N, int64_t K) {
  auto S = [](int64_t V) { return std::to_string(V); };
  return "@proc\n"
         "def sgemm(A: f32[" + S(M) + ", " + S(K) + "], "
         "B: f32[" + S(K) + ", " + S(N) + "], "
         "C: f32[" + S(M) + ", " + S(N) + "]):\n"
         "    for i in seq(0, " + S(M) + "):\n"
         "        for j in seq(0, " + S(N) + "):\n"
         "            for k in seq(0, " + S(K) + "):\n"
         "                C[i, j] += A[i, k] * B[k, j]\n";
}

} // namespace

Expected<ir::ProcRef> exo::apps::buildSgemmAlgorithm(int64_t M, int64_t N,
                                                     int64_t K) {
  if (M <= 0 || N <= 0 || K <= 0)
    return makeError(Error::Kind::Scheduling,
                     "sgemm needs positive M, N, K");
  frontend::ParseEnv Env = avx512Lib().Env;
  return frontend::parseProc(algorithmSource(M, N, K), Env);
}

Expected<SgemmKernels> exo::apps::buildSgemm(int64_t M, int64_t N, int64_t K,
                                             int64_t RowTile,
                                             int64_t ColTile) {
  if (M <= 0 || N <= 0 || K <= 0 || RowTile <= 0 || ColTile <= 0 ||
      M % RowTile || N % ColTile || ColTile % 16)
    return makeError(Error::Kind::Scheduling,
                     "sgemm needs M %% RowTile == 0, N %% ColTile == 0, "
                     "ColTile %% 16 == 0");
  const auto &HW = avx512Lib();

  frontend::ParseEnv Env = HW.Env;
  auto Alg = frontend::parseProc(algorithmSource(M, N, K), Env);
  if (!Alg)
    return Alg.error();

  SgemmKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 5;

  std::string RT = std::to_string(RowTile), CT = std::to_string(ColTile);
  Schedule S(*Alg);
  // --- Register blocking: RowTile x ColTile of C per micro-kernel
  //     (tile2D = split i; split j; sink ii/ji below k). ---
  S.apply(
      [&](const ProcRef &P) {
        return tile2D(P, "i", RowTile, ColTile, "io", "ii", "jo", "ji",
                      SplitTail::Perfect);
      },
      "tile2d");
  // --- Cache blocking, once B outgrows half of L2 and K has a usable
  //     KC: pack KC x ColTile panels of B that every row tile streams,
  //     so the B row the micro-kernel loads comes from the panel. A B
  //     between L1d and L2/2 is packed whole (KC = K, the ko loop runs
  //     once) for the panel's alignment alone. ---
  std::string BRow = "B[k, " + CT + " * jo : " + CT + " * jo + " + CT + "]";
  const int64_t BBytes = K * N * int64_t(sizeof(float));
  const int64_t BlockKC = largestDivisorAtMost(K, MaxKC);
  int64_t KC = 0; // 0: B stays where the caller put it
  if (BBytes > L2Bytes / 2 && BlockKC >= MinKC)
    KC = BlockKC;
  else if (BBytes > L1dBytes && BBytes <= L2Bytes / 2 && K > 1)
    KC = K;
  if (KC) {
    S.apply(
        [&](const ProcRef &P) {
          return cacheBlock(P, "io", "B", KC, "ko", "k", "bp");
        },
        "cache_block");
    BRow = "bp[k, 0 : " + CT + "]";
  }
  // --- Keep the C tile in vector registers across the K loop. ---
  S.stage("for k in _: _", 1,
          "C[" + RT + " * io : " + RT + " * io + " + RT + ", " + CT +
              " * jo : " + CT + " * jo + " + CT + "]",
          "acc", "AVX512")
      // --- Stage the current B row slice in registers, its copy-in
      //     loop pre-split into 16-lane chunks. ---
      .apply(
          [&](const ProcRef &P) {
            return stageAndVectorize(P, "for ii in _: _", BRow, "bvec",
                                     "AVX512", 16, "lv", "ll");
          },
          "stage_and_vectorize")
      // --- Vector shape: split the remaining lane loops by 16. ---
      // acc zero-init (i0, i1): split the 64-wide inner loop.
      .split("i1 #0", 16, "zv", "zl", SplitTail::Perfect)
      // compute lanes.
      .split("ji", 16, "jv", "jl", SplitTail::Perfect)
      // copy-out (i0, i1): the last i1 loop.
      .split("i1 #0", 16, "sv", "sl", SplitTail::Perfect)
      .simplify()
      // --- Instruction selection. ---
      .replaceWith("for zl in _: _", 1, HW.ZeroPs)
      .replaceWith("for ll in _: _", 1, HW.LoaduPs)
      .replaceWith("for jl in _: _", 1, HW.FmaddBcastPs)
      .replaceWith("for sl in _: _", 1, HW.AccumPs)
      // --- Unroll the register-resident loops so the C compiler keeps the
      //     tile in zmm registers. ---
      .unroll("jv")
      .unroll("ii")
      .unroll("lv")
      .unroll("zv")
      .unroll("sv")
      .simplify()
      .rename("exo_sgemm");
  if (!S)
    return S.error();
  Out.ScheduleSteps = S.steps();
  Out.ExoSgemm = S.take("sgemm schedule");
  return Out;
}
