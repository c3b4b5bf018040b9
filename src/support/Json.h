//===- support/Json.h - JSON value type ------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Json is a small self-contained value type (null/bool/int/double/
/// string/array/object) with a strict, depth-capped parser and a
/// deterministic compact dump — no dependency is baked into the tree for
/// what are flat report and request schemas. It is the one way a JSON
/// document is spelled in the tree: the compile service's wire protocol,
/// the --json reports of exocc-batch/tune/fuzz, and the bench files.
///
/// CounterField tables let a statistics struct list its counters once and
/// derive both its before/after delta and its Json rendering from that
/// list (see driver::CompilerCounters).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SUPPORT_JSON_H
#define EXO_SUPPORT_JSON_H

#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace exo {
namespace support {

class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  Json(bool B) : K(Kind::Bool), B(B) {}
  Json(int64_t I) : K(Kind::Int), I(I) {}
  Json(int I) : K(Kind::Int), I(I) {}
  Json(unsigned I) : K(Kind::Int), I(I) {}
  Json(uint64_t I) : K(Kind::Int), I(static_cast<int64_t>(I)) {}
  Json(double D) : K(Kind::Double), D(D) {}
  Json(std::string S) : K(Kind::String), S(std::move(S)) {}
  Json(const char *S) : K(Kind::String), S(S) {}

  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Scalar accessors with defaults (wrong-kind reads return the
  /// default; a flat protocol prefers lenient reads + explicit schema
  /// checks at the call site).
  bool asBool(bool Def = false) const { return K == Kind::Bool ? B : Def; }
  int64_t asInt(int64_t Def = 0) const {
    if (K == Kind::Int)
      return I;
    if (K == Kind::Double)
      return static_cast<int64_t>(D);
    return Def;
  }
  double asDouble(double Def = 0) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Def;
  }
  const std::string &asString() const { return S; }

  /// Object access: null when absent or not an object.
  const Json *get(const std::string &Key) const;
  /// Convenience typed lookups on objects.
  int64_t getInt(const std::string &Key, int64_t Def = 0) const;
  bool getBool(const std::string &Key, bool Def = false) const;
  std::string getString(const std::string &Key,
                        const std::string &Def = "") const;

  /// Object/array mutation (switches kind on first use from Null).
  Json &set(const std::string &Key, Json V);
  Json &push(Json V);
  /// Sets every field of the object \p Other on this object, in order.
  Json &merge(const Json &Other);

  const std::vector<Json> &items() const { return Arr; }
  const std::vector<std::pair<std::string, Json>> &fields() const {
    return Obj;
  }

  /// Compact serialization (no insignificant whitespace; object fields in
  /// insertion order, so output is deterministic). JSON has no NaN or
  /// infinity, so a non-finite double is written as null.
  std::string dump() const;

  /// Strict parse of one JSON document (trailing garbage is an error).
  static Expected<Json> parse(const std::string &Text);

private:
  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::vector<std::pair<std::string, Json>> Obj;
};

/// One named uint64_t counter of a statistics struct. A stats struct lists
/// its counters once, in a table of these, and derives its since() and
/// toJson() from that table; gauges (sizes of live tables) stay out of it,
/// because a gauge is read from the later snapshot, never subtracted.
template <typename StatsT> struct CounterField {
  const char *Name;
  uint64_t StatsT::*Member;
};

/// Adds every counter of \p Fields in \p Part to \p Sum (shard totals).
template <typename StatsT, size_t N>
void countersAdd(StatsT &Sum, const StatsT &Part,
                 const CounterField<StatsT> (&Fields)[N]) {
  for (const CounterField<StatsT> &F : Fields)
    Sum.*F.Member += Part.*F.Member;
}

/// \p After with every counter of \p Fields replaced by its growth since
/// \p Before; every other field keeps \p After's value.
template <typename StatsT, size_t N>
StatsT countersSince(StatsT After, const StatsT &Before,
                     const CounterField<StatsT> (&Fields)[N]) {
  for (const CounterField<StatsT> &F : Fields)
    After.*F.Member -= Before.*F.Member;
  return After;
}

/// An object holding every counter of \p Fields under its name.
template <typename StatsT, size_t N>
Json countersJson(const StatsT &Stats,
                  const CounterField<StatsT> (&Fields)[N]) {
  Json J = Json::object();
  for (const CounterField<StatsT> &F : Fields)
    J.set(F.Name, Stats.*F.Member);
  return J;
}

} // namespace support
} // namespace exo

#endif // EXO_SUPPORT_JSON_H
