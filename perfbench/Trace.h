//===- perfbench/Trace.h - In-memory spans, Chrome trace output -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span tracer. Spans are opened by the benchmark around
/// each call into a compiler layer; each has a name (the layer and the
/// call, e.g. "frontend.parse"), a start, an end, the span that was open
/// when it began (its parent), and a group id shared by every span of one
/// job, kernel or search. Spans are kept in memory and written as Chrome
/// trace-event JSON at exit (load the file in chrome://tracing or
/// Perfetto).
///
/// Spans are recorded only while tracing is enabled; with it off a Span
/// still times its interval (two clock reads) but stores nothing, so the
/// untraced run measures the same code path. Single-threaded: spans are
/// opened and closed on the benchmark's main thread only (or on the main
/// thread of a forked child, which hands them back; see exportSpans).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_PERFBENCH_TRACE_H
#define EXO_PERFBENCH_TRACE_H

#include <cstdint>
#include <string>

namespace perfbench {

void enableTracing(bool On);
bool tracingEnabled();

/// A fresh group id for the spans of one job, kernel or search.
uint64_t newTraceGroup();

/// Writes every recorded span to \p Path; returns false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// Carries spans across fork(): a child process serializes the spans it
/// recorded after the first \p Mark ones (spanCount() before the fork),
/// and the parent appends them to its own with importSpans.
size_t spanCount();
std::string exportSpans(size_t Mark);
void importSpans(const std::string &Blob);

class Span {
public:
  Span(std::string Name, uint64_t Group = 0, std::string Detail = {});
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span (idempotent) and returns its duration in ms.
  double end();

private:
  std::string Name;
  std::string Detail;
  uint64_t Group;
  int64_t Parent;
  double StartUs;
  double DurMs = -1;
};

} // namespace perfbench

#endif // EXO_PERFBENCH_TRACE_H
