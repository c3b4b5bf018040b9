//===- bench/BenchHarness.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "support/TempDir.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace exo;
using namespace exo::bench;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

std::string exo::bench::gemminiRuntimeDir() {
  return std::string(EXO_SOURCE_DIR) + "/src/hwlibs/gemmini/runtime";
}

std::string exo::bench::avx512RuntimeDir() {
  return std::string(EXO_SOURCE_DIR) + "/src/hwlibs/avx512/runtime";
}

Expected<std::vector<std::string>>
exo::bench::compileAndRun(const std::string &CSource,
                          const std::vector<std::string> &ExtraSources,
                          const std::vector<std::string> &IncludeDirs,
                          const std::string &ExtraCFlags) {
  // A fresh directory under $TMPDIR per call, removed on return.
  support::TempDir Dir("bench");
  if (!Dir.valid())
    return makeError(Error::Kind::Internal,
                     "cannot create a scratch directory under " +
                         support::TempDir::tempRoot());
  std::string CPath = Dir.file("gen.c");
  std::string Bin = Dir.file("gen.bin");
  std::string OutPath = Dir.file("gen.out");
  std::string ErrPath = Dir.file("gen.err");
  {
    std::ofstream F(CPath);
    F << CSource;
  }
  std::string Cmd = "cc -O2 -march=native -std=gnu11 " + ExtraCFlags + " ";
  for (const std::string &I : IncludeDirs)
    Cmd += "-I" + I + " ";
  Cmd += CPath + " ";
  for (const std::string &S : ExtraSources)
    Cmd += S + " ";
  Cmd += "-lm -o " + Bin + " 2> " + ErrPath;
  if (std::system(Cmd.c_str()) != 0) {
    std::ifstream E(ErrPath);
    std::stringstream SS;
    SS << E.rdbuf();
    return makeError(Error::Kind::Internal,
                     "C compilation failed:\n" + SS.str());
  }
  if (std::system((Bin + " > " + OutPath).c_str()) != 0)
    return makeError(Error::Kind::Internal, "generated binary failed");
  std::ifstream In(OutPath);
  std::vector<std::string> Tokens;
  std::string T;
  while (In >> T)
    Tokens.push_back(T);
  return Tokens;
}

void exo::bench::printRow(const std::vector<std::string> &Cells,
                          const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Cells.size(); ++I) {
    int W = I < Widths.size() ? Widths[I] : 12;
    std::string C = Cells[I];
    if (static_cast<int>(C.size()) < W)
      C += std::string(W - C.size(), ' ');
    Line += C + " ";
  }
  std::printf("%s\n", Line.c_str());
}
