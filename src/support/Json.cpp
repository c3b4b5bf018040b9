//===- support/Json.cpp ----------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace exo;
using namespace exo::support;

namespace {

/// JSON string escaping: the quote, the backslash and every control
/// character.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Recursive-descent JSON parser over a bounded string. Depth-limited so
/// hostile nesting cannot blow the daemon's stack.
struct JsonParser {
  const std::string &T;
  size_t P = 0;
  unsigned Depth = 0;
  static constexpr unsigned MaxDepth = 64;

  explicit JsonParser(const std::string &T) : T(T) {}

  Error err(const std::string &Msg) {
    return makeError(Error::Kind::Parse,
                     "json: " + Msg + " at offset " + std::to_string(P));
  }

  void skipWs() {
    while (P < T.size() &&
           (T[P] == ' ' || T[P] == '\t' || T[P] == '\n' || T[P] == '\r'))
      ++P;
  }

  bool eat(char C) {
    skipWs();
    if (P < T.size() && T[P] == C) {
      ++P;
      return true;
    }
    return false;
  }

  Expected<Json> value() {
    if (++Depth > MaxDepth)
      return err("nesting too deep");
    skipWs();
    if (P >= T.size())
      return err("unexpected end of input");
    char C = T[P];
    Expected<Json> R = [&]() -> Expected<Json> {
      switch (C) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        auto S = string();
        if (!S)
          return S.error();
        return Json(std::move(*S));
      }
      case 't':
        return literal("true", Json(true));
      case 'f':
        return literal("false", Json(false));
      case 'n':
        return literal("null", Json());
      default:
        return number();
      }
    }();
    --Depth;
    return R;
  }

  Expected<Json> literal(const char *Lit, Json V) {
    size_t N = std::strlen(Lit);
    if (T.compare(P, N, Lit) != 0)
      return err("invalid literal");
    P += N;
    return V;
  }

  Expected<std::string> string() {
    if (!eat('"'))
      return err("expected string");
    std::string Out;
    while (P < T.size()) {
      char C = T[P++];
      if (C == '"')
        return Out;
      if (C == '\\') {
        if (P >= T.size())
          return err("dangling escape");
        char E = T[P++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (P + 4 > T.size())
            return err("truncated \\u escape");
          unsigned V = 0;
          for (int K = 0; K < 4; ++K) {
            char H = T[P++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= H - '0';
            else if (H >= 'a' && H <= 'f')
              V |= H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              V |= H - 'A' + 10;
            else
              return err("bad \\u escape");
          }
          // Minimal UTF-8 encode (surrogate pairs land as two separate
          // 3-byte sequences; the protocol never emits them).
          if (V < 0x80)
            Out += static_cast<char>(V);
          else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return err("unknown escape");
        }
      } else {
        Out += C;
      }
    }
    return err("unterminated string");
  }

  Expected<Json> number() {
    size_t Start = P;
    if (P < T.size() && T[P] == '-')
      ++P;
    while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
      ++P;
    bool IsDouble = false;
    if (P < T.size() && T[P] == '.') {
      IsDouble = true;
      ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    if (P < T.size() && (T[P] == 'e' || T[P] == 'E')) {
      IsDouble = true;
      ++P;
      if (P < T.size() && (T[P] == '+' || T[P] == '-'))
        ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    if (P == Start || (P == Start + 1 && T[Start] == '-'))
      return err("expected value");
    std::string Num = T.substr(Start, P - Start);
    if (IsDouble)
      return Json(std::strtod(Num.c_str(), nullptr));
    errno = 0;
    long long V = std::strtoll(Num.c_str(), nullptr, 10);
    if (errno == ERANGE)
      return Json(std::strtod(Num.c_str(), nullptr));
    return Json(static_cast<int64_t>(V));
  }

  Expected<Json> array() {
    eat('[');
    Json Out = Json::array();
    skipWs();
    if (eat(']'))
      return Out;
    for (;;) {
      auto V = value();
      if (!V)
        return V.error();
      Out.push(std::move(*V));
      if (eat(']'))
        return Out;
      if (!eat(','))
        return err("expected ',' or ']'");
    }
  }

  Expected<Json> object() {
    eat('{');
    Json Out = Json::object();
    skipWs();
    if (eat('}'))
      return Out;
    for (;;) {
      skipWs();
      auto Key = string();
      if (!Key)
        return Key.error();
      if (!eat(':'))
        return err("expected ':'");
      auto V = value();
      if (!V)
        return V.error();
      Out.set(*Key, std::move(*V));
      if (eat('}'))
        return Out;
      if (!eat(','))
        return err("expected ',' or '}'");
    }
  }
};

} // namespace

const Json *Json::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &F : Obj)
    if (F.first == Key)
      return &F.second;
  return nullptr;
}

int64_t Json::getInt(const std::string &Key, int64_t Def) const {
  const Json *V = get(Key);
  return V ? V->asInt(Def) : Def;
}

bool Json::getBool(const std::string &Key, bool Def) const {
  const Json *V = get(Key);
  return V ? V->asBool(Def) : Def;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Def) const {
  const Json *V = get(Key);
  return V && V->kind() == Kind::String ? V->asString() : Def;
}

Json &Json::set(const std::string &Key, Json V) {
  if (K == Kind::Null)
    K = Kind::Object;
  assert(K == Kind::Object && "set() on a non-object Json");
  for (auto &F : Obj)
    if (F.first == Key) {
      F.second = std::move(V);
      return *this;
    }
  Obj.emplace_back(Key, std::move(V));
  return *this;
}

Json &Json::push(Json V) {
  if (K == Kind::Null)
    K = Kind::Array;
  assert(K == Kind::Array && "push() on a non-array Json");
  Arr.push_back(std::move(V));
  return *this;
}

Json &Json::merge(const Json &Other) {
  for (const auto &F : Other.Obj)
    set(F.first, F.second);
  return *this;
}

std::string Json::dump() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Int:
    return std::to_string(I);
  case Kind::Double: {
    if (!std::isfinite(D))
      return "null";
    // Shortest text that parses back to exactly D.
    char Buf[32];
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), D).ptr);
  }
  case Kind::String:
    return "\"" + jsonEscape(S) + "\"";
  case Kind::Array: {
    std::string Out = "[";
    for (size_t N = 0; N < Arr.size(); ++N) {
      if (N)
        Out += ",";
      Out += Arr[N].dump();
    }
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (size_t N = 0; N < Obj.size(); ++N) {
      if (N)
        Out += ",";
      Out += "\"" + jsonEscape(Obj[N].first) + "\":" + Obj[N].second.dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

Expected<Json> Json::parse(const std::string &Text) {
  JsonParser P(Text);
  auto V = P.value();
  if (!V)
    return V;
  P.skipWs();
  if (P.P != Text.size())
    return P.err("trailing garbage");
  return V;
}
