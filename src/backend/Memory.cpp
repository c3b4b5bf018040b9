//===- backend/Memory.cpp --------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "backend/Memory.h"

using namespace exo;
using namespace exo::backend;

std::string AllocInfo::countExpr() const {
  std::string Size;
  for (const std::string &D : DimExprs) {
    if (!Size.empty())
      Size += " * ";
    Size += "(" + D + ")";
  }
  return Size.empty() ? "1" : Size;
}

Memory::~Memory() = default;

std::string Memory::allocCode(const AllocInfo &Info) const {
  if (Info.onStack())
    return Info.PrimType + " " + Info.Name + "[" + Info.countExpr() + "];";
  return Info.PrimType + " *" + Info.Name + " = (" + Info.PrimType +
         " *)malloc(" + Info.countExpr() + " * sizeof(" + Info.PrimType +
         "));";
}

std::string Memory::freeCode(const AllocInfo &Info) const {
  return Info.onStack() ? "" : "free(" + Info.Name + ");";
}

namespace {

/// The default DRAM: the base class's stack/heap split, every buffer
/// 64-byte aligned (see MemoryRegistry).
class DramMemory : public Memory {
public:
  DramMemory() : Memory("DRAM", /*Addressable=*/true) {}

  std::string allocCode(const AllocInfo &Info) const override {
    if (Info.onStack())
      return Info.PrimType + " " + Info.Name + "[" + Info.countExpr() +
             "] __attribute__((aligned(64)));";
    return Info.PrimType + " *" + Info.Name + " = (" + Info.PrimType +
           " *)aligned_alloc(64, (" + Info.countExpr() + " * sizeof(" +
           Info.PrimType + ") + 63) / 64 * 64);";
  }
};

} // namespace

MemoryRegistry::MemoryRegistry() { add(std::make_shared<DramMemory>()); }

MemoryRegistry &MemoryRegistry::instance() {
  static MemoryRegistry R;
  return R;
}

void MemoryRegistry::add(MemoryRef Mem) {
  std::lock_guard<std::mutex> Lock(M);
  Memories[Mem->name()] = std::move(Mem);
}

MemoryRef MemoryRegistry::find(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Memories.find(Name);
  return It == Memories.end() ? nullptr : It->second;
}
