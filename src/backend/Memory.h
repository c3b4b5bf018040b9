//===- backend/Memory.h - User-defined memories ----------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Custom memories (§2.2, §3.2.1): hardware targets define memories in
/// *libraries*, not compiler backends. A Memory chooses the C code
/// emitted for buffer allocation and free, contributes global snippets
/// (includes, helpers), and decides whether plain reads/writes/reductions
/// of its buffers are allowed at all — scratchpads typically disable
/// direct access so only custom instructions can touch them (enforced by
/// the backend MemoryCheck).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_BACKEND_MEMORY_H
#define EXO_BACKEND_MEMORY_H

#include "support/Error.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exo {
namespace backend {

/// Information handed to the allocation hooks.
struct AllocInfo {
  std::string Name;       ///< C identifier of the buffer
  std::string PrimType;   ///< C scalar type, e.g. "float"
  std::vector<std::string> DimExprs; ///< C expressions for each dimension
  bool ConstSize;         ///< every dimension is a literal
  long long TotalConstSize; ///< product of dims when ConstSize

  /// C expression for the element count: the product of DimExprs.
  std::string countExpr() const;
  /// The default memories keep small constant-size buffers on the stack.
  bool onStack() const { return ConstSize && TotalConstSize <= 4096; }
};

/// Base class for memory definitions. Subclass and override the hooks;
/// the defaults implement ordinary heap allocation. (The registered DRAM
/// overrides them to align every buffer to 64 bytes; hardware memories
/// that wrap the defaults keep the plain spelling.)
class Memory {
public:
  Memory(std::string Name, bool Addressable)
      : Name(std::move(Name)), Addressable(Addressable) {}
  virtual ~Memory();

  const std::string &name() const { return Name; }

  /// May generated C read/write/reduce elements directly? Scratchpad-like
  /// memories return false and are only accessible through instructions.
  bool isAddressable() const { return Addressable; }

  /// C statement(s) allocating the buffer. The default uses a stack array
  /// for constant sizes and malloc otherwise.
  virtual std::string allocCode(const AllocInfo &Info) const;

  /// C statement(s) freeing the buffer (empty when allocCode used the
  /// stack).
  virtual std::string freeCode(const AllocInfo &Info) const;

  /// Emitted once per generated file (includes, helper definitions).
  virtual std::string globalCode() const { return ""; }

private:
  std::string Name;
  bool Addressable;
};

using MemoryRef = std::shared_ptr<const Memory>;

/// Process-wide registry of memory definitions; "DRAM" is pre-registered.
/// DRAM buffers start on a 64-byte boundary — one cache line, one zmm
/// vector — so vector loads from a buffer the compiler allocated (a
/// packed panel) never straddle two lines: stack arrays carry
/// `__attribute__((aligned(64)))` and heap buffers come from
/// `aligned_alloc(64, ...)` with their byte size rounded up to 64.
/// Thread-safe: hardware libraries register memories lazily from whichever
/// compile session touches them first, while codegen on other sessions
/// looks memories up concurrently.
class MemoryRegistry {
public:
  static MemoryRegistry &instance();

  void add(MemoryRef M);
  /// Returns the memory, or null when unknown.
  MemoryRef find(const std::string &Name) const;

private:
  MemoryRegistry();
  mutable std::mutex M;
  std::map<std::string, MemoryRef> Memories;
};

} // namespace backend
} // namespace exo

#endif // EXO_BACKEND_MEMORY_H
