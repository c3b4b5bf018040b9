//===- apps/Conv.h - Convolution kernels -----------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The convolutional-layer case studies: a 3x3, stride-1, no-padding,
/// NHWC conv2d with fused ReLU on x86/AVX-512 (Fig. 6) and the same layer
/// mapped onto Gemmini as an accumulation of 16-channel tile matmuls over
/// the kernel window (Fig. 4b).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_APPS_CONV_H
#define EXO_APPS_CONV_H

#include "ir/Proc.h"
#include "support/Error.h"

namespace exo {
namespace apps {

struct ConvShape {
  int64_t N;  ///< batch
  int64_t H;  ///< input height
  int64_t W;  ///< input width
  int64_t IC; ///< input channels
  int64_t OC; ///< output channels
  int64_t KH = 3, KW = 3;

  int64_t oh() const { return H - KH + 1; }
  int64_t ow() const { return W - KW + 1; }
  /// MACs of the convolution (for utilization metrics).
  double macs() const {
    return double(N) * oh() * ow() * OC * IC * KH * KW;
  }
};

struct ConvKernels {
  ir::ProcRef Algorithm;
  ir::ProcRef Scheduled;
  /// Gemmini only: the pre-hoist schedule (configuration per tile),
  /// modeling the handwritten library of Fig. 4b.
  ir::ProcRef OldLib;
  unsigned AlgStmts = 0;
  unsigned ScheduleSteps = 0;
};

/// x86 conv with fused ReLU; OC must be a multiple of 16. When the shape
/// allows a pixel tile (OC % 64 == 0 and ow() has a divisor in [2, 6]),
/// this is buildConvX86PixelTiled; otherwise one output pixel's channel
/// row is accumulated in registers, each FMA loading its weight vector.
Expected<ConvKernels> buildConvX86(const ConvShape &S);

/// The register-blocked x86 conv: a PT x 64 tile of output pixels x
/// channels (PT = the largest divisor of ow() <= 6) accumulated in vector
/// registers across the kernel window, each 64-wide weight row loaded
/// once per input channel and reused by all PT pixels. The weights are
/// first packed into a 64-byte-aligned buffer wp, from which those rows
/// are loaded. Needs OC % 64 == 0 and PT >= 2; buildConvX86 picks it
/// whenever those hold.
Expected<ConvKernels> buildConvX86PixelTiled(const ConvShape &S);

/// Gemmini conv (ReLU applied by the caller; see EXPERIMENTS.md).
/// OC and IC must be multiples of 16 and ow() of \p RowTile (<= 16).
Expected<ConvKernels> buildConvGemmini(const ConvShape &S, int64_t RowTile);

/// Parse-only variants of the two conv algorithms (with and without the
/// fused ReLU pass) — the --fallback-reference degradation targets; they
/// run no scheduling and no solver queries.
Expected<ir::ProcRef> buildConvX86Algorithm(const ConvShape &S);
Expected<ir::ProcRef> buildConvGemminiAlgorithm(const ConvShape &S);

} // namespace apps
} // namespace exo

#endif // EXO_APPS_CONV_H
