//===- apps/Sgemm.h - x86 SGEMM kernels ------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7.2 SGEMM case study: C[M,N] += A[M,K]·B[K,N] scheduled for x86
/// with AVX-512: a 6x64 register-blocked micro-kernel (6 C rows x 4
/// vectors of 16 lanes), B rows staged in vector registers and A elements
/// broadcast into fused multiply-adds, with the accumulator tile kept in
/// registers across the K loop — the paper's "11 statements of algorithm,
/// 162 scheduling directives" structure.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_APPS_SGEMM_H
#define EXO_APPS_SGEMM_H

#include "ir/Proc.h"
#include "support/Error.h"

namespace exo {
namespace apps {

struct SgemmKernels {
  ir::ProcRef Algorithm; ///< naive three-loop f32 matmul
  ir::ProcRef ExoSgemm;  ///< scheduled 6x64 register-blocked kernel
  unsigned AlgStmts = 0;
  unsigned ScheduleSteps = 0;
};

/// Builds the scheduled SGEMM for an MxNxK workload. M must be a
/// multiple of RowTile and N a multiple of ColTile (a multiple of 16);
/// the paper dispatches to specialized edge kernels for the remainders,
/// and the benchmarks use divisible sizes. The default 6x64 micro-kernel
/// is the paper's choice; ablation_microkernel_shape sweeps others. When
/// B is larger than half of L2 and K has a divisor KC in [16, 256], the
/// schedule also packs B into KC x ColTile panels (scheduling::cacheBlock;
/// the largest such KC). When B is larger than L1d but at most half of
/// L2, it packs K x ColTile panels instead (KC = K): the 64-byte-aligned
/// panel keeps the micro-kernel's B loads on single cache lines.
Expected<SgemmKernels> buildSgemm(int64_t M, int64_t N, int64_t K,
                                  int64_t RowTile = 6, int64_t ColTile = 64);

/// Parses just the unscheduled three-loop algorithm — no scheduling, no
/// solver queries. This is the degradation target for
/// --fallback-reference: it must stay buildable even when the schedule
/// (or the solver budget) fails.
Expected<ir::ProcRef> buildSgemmAlgorithm(int64_t M, int64_t N, int64_t K);

} // namespace apps
} // namespace exo

#endif // EXO_APPS_SGEMM_H
