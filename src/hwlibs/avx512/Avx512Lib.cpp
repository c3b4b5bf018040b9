//===- hwlibs/avx512/Avx512Lib.cpp -----------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "hwlibs/avx512/Avx512Lib.h"

#include "backend/Memory.h"
#include "support/Error.h"

using namespace exo;
using namespace exo::hw::avx512;

namespace {

/// Vector-register memory: small aligned arrays the C compiler keeps in
/// zmm registers once the surrounding loops are unrolled.
class Avx512Memory : public backend::Memory {
public:
  Avx512Memory() : backend::Memory("AVX512", /*Addressable=*/true) {}

  std::string allocCode(const backend::AllocInfo &Info) const override {
    return Info.PrimType + " " + Info.Name + "[" + Info.countExpr() +
           "] __attribute__((aligned(64)));";
  }

  std::string freeCode(const backend::AllocInfo &Info) const override {
    return "";
  }

  std::string globalCode() const override {
    return "#include \"avx512_sim.h\"";
  }
};

const char *Avx512Source = R"x(
@instr("exo_mm512_loadu_ps(&{dst}.data[0], &{src}.data[0]);")
def mm512_loadu_ps(dst: [f32][16] @ AVX512, src: [f32][16]):
    for l in seq(0, 16):
        dst[l] = src[l]

@instr("exo_mm512_storeu_ps(&{dst}.data[0], &{src}.data[0]);")
def mm512_storeu_ps(dst: [f32][16], src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = src[l]

@instr("exo_mm512_set1_ps(&{dst}.data[0], 0.0f);")
def mm512_zero_ps(dst: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = 0.0

@instr("exo_mm512_fmadd_ps(&{a}.data[0], &{b}.data[0], &{c}.data[0]);")
def mm512_fmadd_ps(a: [f32][16] @ AVX512, b: [f32][16] @ AVX512, c: [f32][16] @ AVX512):
    for l in seq(0, 16):
        c[l] += a[l] * b[l]

@instr("exo_mm512_fmadd_bcast_ps(*{a}, &{b}.data[0], &{c}.data[0]);")
def mm512_fmadd_bcast_ps(a: f32, b: [f32][16] @ AVX512, c: [f32][16] @ AVX512):
    for l in seq(0, 16):
        c[l] += a * b[l]

@instr("exo_mm512_accum_ps(&{dst}.data[0], &{src}.data[0]);")
def mm512_accum_ps(dst: [f32][16], src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] += src[l]

@instr("exo_mm512_relu_ps(&{dst}.data[0], &{src}.data[0]);")
def mm512_relu_ps(dst: [f32][16], src: [f32][16] @ AVX512):
    for l in seq(0, 16):
        dst[l] = max(src[l], 0.0)

@instr("exo_mm512_maskz_loadu_ps({m}, &{dst}.data[0], &{src}.data[0]);")
def mm512_maskz_loadu_ps(m: size, dst: [f32][16] @ AVX512, src: [f32][m]):
    assert m <= 16
    for l in seq(0, m):
        dst[l] = src[l]

@instr("exo_mm512_mask_storeu_ps({m}, &{dst}.data[0], &{src}.data[0]);")
def mm512_mask_storeu_ps(m: size, dst: [f32][m], src: [f32][16] @ AVX512):
    assert m <= 16
    for l in seq(0, m):
        dst[l] = src[l]
)x";

Avx512Lib *buildLibrary() {
  backend::MemoryRegistry::instance().add(std::make_shared<Avx512Memory>());

  auto *Lib = new Avx512Lib();
  auto M = frontend::parseModule(Avx512Source, Lib->Env);
  if (!M)
    fatalError("avx512 library failed to parse: " + M.error().str());
  Lib->LoaduPs = Lib->Env.findProc("mm512_loadu_ps");
  Lib->StoreuPs = Lib->Env.findProc("mm512_storeu_ps");
  Lib->ZeroPs = Lib->Env.findProc("mm512_zero_ps");
  Lib->FmaddPs = Lib->Env.findProc("mm512_fmadd_ps");
  Lib->FmaddBcastPs = Lib->Env.findProc("mm512_fmadd_bcast_ps");
  Lib->AccumPs = Lib->Env.findProc("mm512_accum_ps");
  Lib->ReluPs = Lib->Env.findProc("mm512_relu_ps");
  Lib->MaskzLoaduPs = Lib->Env.findProc("mm512_maskz_loadu_ps");
  Lib->MaskStoreuPs = Lib->Env.findProc("mm512_mask_storeu_ps");
  return Lib;
}

} // namespace

const Avx512Lib &exo::hw::avx512::avx512Lib() {
  static Avx512Lib *Lib = buildLibrary();
  return *Lib;
}
