//===- perfbench/Trace.cpp -------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

using namespace perfbench;

namespace {

struct Event {
  std::string Name;
  std::string Detail;
  uint64_t Group;
  int64_t Parent; ///< index into Events of the enclosing span, or -1
  double StartUs;
  double DurUs;
};

bool Enabled = false;
uint64_t NextGroup = 1;
std::vector<Event> Events;
/// Indices (into Events) of the spans currently open, innermost last. An
/// open span reserves its slot when it starts, so parents precede their
/// children in the output.
std::vector<int64_t> Open;

const auto Epoch = std::chrono::steady_clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void writeJsonString(FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
  std::fputc('"', F);
}

} // namespace

void perfbench::enableTracing(bool On) { Enabled = On; }
bool perfbench::tracingEnabled() { return Enabled; }
uint64_t perfbench::newTraceGroup() { return NextGroup++; }

Span::Span(std::string Name, uint64_t Group, std::string Detail)
    : Name(std::move(Name)), Detail(std::move(Detail)), Group(Group),
      Parent(-1), StartUs(0) {
  if (Enabled) {
    Parent = Open.empty() ? -1 : Open.back();
    Events.push_back({this->Name, this->Detail, Group, Parent, 0, -1});
    Open.push_back(static_cast<int64_t>(Events.size()) - 1);
  }
  StartUs = nowUs();
}

double Span::end() {
  if (DurMs >= 0)
    return DurMs;
  double EndUs = nowUs();
  DurMs = (EndUs - StartUs) / 1000.0;
  if (Enabled && !Open.empty()) {
    Event &E = Events[Open.back()];
    E.StartUs = StartUs;
    E.DurUs = EndUs - StartUs;
    Open.pop_back();
  }
  return DurMs;
}

size_t perfbench::spanCount() { return Events.size(); }

// One span per line, fields separated by the ASCII unit separator; parent
// indices are made relative to Mark (-1 stays "no parent").
std::string perfbench::exportSpans(size_t Mark) {
  std::string Out;
  char Buf[128];
  for (size_t I = Mark; I < Events.size(); ++I) {
    const Event &E = Events[I];
    long long Parent = E.Parent < static_cast<int64_t>(Mark)
                           ? -1
                           : E.Parent - static_cast<int64_t>(Mark);
    std::snprintf(Buf, sizeof(Buf), "\x1f%llu\x1f%lld\x1f%.3f\x1f%.3f\n",
                  (unsigned long long)E.Group, Parent, E.StartUs, E.DurUs);
    Out += E.Name + "\x1f" + E.Detail + Buf;
  }
  return Out;
}

void perfbench::importSpans(const std::string &Blob) {
  const int64_t Base = static_cast<int64_t>(Events.size());
  size_t Pos = 0;
  while (Pos < Blob.size()) {
    size_t End = Blob.find('\n', Pos);
    if (End == std::string::npos)
      break;
    std::vector<std::string> F;
    for (size_t B = Pos; B <= End;) {
      size_t Sep = std::min(Blob.find('\x1f', B), End);
      F.push_back(Blob.substr(B, Sep - B));
      B = Sep + 1;
    }
    Pos = End + 1;
    if (F.size() != 6)
      continue;
    Event E{F[0], F[1], std::stoull(F[2]), std::stoll(F[3]),
            std::stod(F[4]), std::stod(F[5])};
    if (E.Parent >= 0)
      E.Parent += Base;
    NextGroup = std::max(NextGroup, E.Group + 1);
    Events.push_back(std::move(E));
  }
}

bool perfbench::writeChromeTrace(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I < Events.size(); ++I) {
    const Event &E = Events[I];
    std::string Cat = E.Name.substr(0, E.Name.find('.'));
    std::fprintf(F, "%s{\"name\": ", I ? ",\n" : "");
    writeJsonString(F, E.Name);
    std::fprintf(F, ", \"cat\": ");
    writeJsonString(F, Cat);
    std::fprintf(F,
                 ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %lld, "
                 "\"group\": %llu, \"detail\": ",
                 E.StartUs, E.DurUs, I, (long long)E.Parent,
                 (unsigned long long)E.Group);
    writeJsonString(F, E.Detail);
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
