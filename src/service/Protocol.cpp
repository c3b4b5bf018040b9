//===- service/Protocol.cpp - Wire protocol of exocc-serve -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/FaultInjector.h"
#include "support/Signals.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exo;
using namespace exo::service;

std::string exo::service::fingerprint(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

const char *exo::service::frameStatusName(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::IdleTimeout:
    return "idle-timeout";
  case FrameStatus::Timeout:
    return "timeout";
  case FrameStatus::TooLarge:
    return "too-large";
  case FrameStatus::TruncatedEof:
    return "truncated-eof";
  case FrameStatus::Error:
    return "error";
  }
  return "?";
}

namespace {

int64_t nowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads exactly N bytes, polling against an absolute deadline (-1 =
/// none). Classifies EOF as TruncatedEof because callers only use this
/// after a frame has begun (the first-byte case is handled separately).
FrameStatus readExact(int Fd, char *Buf, size_t N, int64_t DeadlineAt,
                      std::string &Detail) {
  size_t Got = 0;
  while (Got < N) {
    int Wait = -1;
    if (DeadlineAt >= 0) {
      int64_t Left = DeadlineAt - nowMillis();
      if (Left <= 0) {
        Detail = "frame incomplete at deadline (" + std::to_string(Got) +
                 "/" + std::to_string(N) + " bytes)";
        return FrameStatus::Timeout;
      }
      Wait = static_cast<int>(Left > 1000 ? 1000 : Left);
    } else {
      Wait = 1000;
    }
    struct pollfd PFD = {Fd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, Wait);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      Detail = std::strerror(errno);
      return FrameStatus::Error;
    }
    if (PR == 0)
      continue; // re-check deadline
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R == 0) {
      Detail = "peer closed mid-frame (" + std::to_string(Got) + "/" +
               std::to_string(N) + " bytes)";
      return FrameStatus::TruncatedEof;
    }
    if (errno == EINTR || errno == EAGAIN)
      continue;
    Detail = std::strerror(errno);
    return FrameStatus::Error;
  }
  return FrameStatus::Ok;
}

} // namespace

FrameResult exo::service::readFrame(int Fd, int IdleTimeoutMillis,
                                    int FrameTimeoutMillis) {
  FrameResult Out;

  // Phase 1: wait for the first byte under the idle deadline. A clean
  // EOF here is a normal hangup.
  int64_t IdleDeadline =
      IdleTimeoutMillis < 0 ? -1 : nowMillis() + IdleTimeoutMillis;
  char Hdr[4];
  size_t Got = 0;
  while (Got == 0) {
    int Wait = -1;
    if (IdleDeadline >= 0) {
      int64_t Left = IdleDeadline - nowMillis();
      if (Left <= 0) {
        Out.Status = FrameStatus::IdleTimeout;
        return Out;
      }
      Wait = static_cast<int>(Left > 1000 ? 1000 : Left);
    } else {
      Wait = 1000;
    }
    struct pollfd PFD = {Fd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, Wait);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      Out.Status = FrameStatus::Error;
      Out.Detail = std::strerror(errno);
      return Out;
    }
    if (PR == 0)
      continue;
    ssize_t R = ::read(Fd, Hdr, 1);
    if (R == 1) {
      Got = 1;
      break;
    }
    if (R == 0) {
      Out.Status = FrameStatus::Eof;
      return Out;
    }
    if (errno == EINTR || errno == EAGAIN)
      continue;
    Out.Status = FrameStatus::Error;
    Out.Detail = std::strerror(errno);
    return Out;
  }

  // Phase 2: the rest of the frame must complete within the frame
  // deadline — the slow-loris guard.
  int64_t FrameDeadline =
      FrameTimeoutMillis < 0 ? -1 : nowMillis() + FrameTimeoutMillis;
  FrameStatus St = readExact(Fd, Hdr + 1, 3, FrameDeadline, Out.Detail);
  if (St != FrameStatus::Ok) {
    Out.Status = St;
    return Out;
  }
  uint32_t Len = (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(Hdr[3]));
  if (Len > MaxFrameBytes) {
    Out.Status = FrameStatus::TooLarge;
    Out.Detail = "declared frame length " + std::to_string(Len) +
                 " exceeds the " + std::to_string(MaxFrameBytes) +
                 "-byte ceiling";
    return Out;
  }
  Out.Payload.resize(Len);
  if (Len > 0) {
    St = readExact(Fd, Out.Payload.data(), Len, FrameDeadline, Out.Detail);
    if (St != FrameStatus::Ok) {
      Out.Status = St;
      Out.Payload.clear();
      return Out;
    }
  }
  Out.Status = FrameStatus::Ok;
  return Out;
}

namespace {

std::string frameBytes(const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  std::string Buf;
  Buf.reserve(Payload.size() + 4);
  Buf += static_cast<char>((Len >> 24) & 0xFF);
  Buf += static_cast<char>((Len >> 16) & 0xFF);
  Buf += static_cast<char>((Len >> 8) & 0xFF);
  Buf += static_cast<char>(Len & 0xFF);
  Buf += Payload;
  return Buf;
}

FrameResult writeAll(int Fd, const char *Buf, size_t N) {
  FrameResult Out;
  size_t Sent = 0;
  while (Sent < N) {
    ssize_t W = ::write(Fd, Buf + Sent, N - Sent);
    if (W > 0) {
      Sent += static_cast<size_t>(W);
      continue;
    }
    if (W < 0 && (errno == EINTR || errno == EAGAIN))
      continue;
    Out.Status = FrameStatus::Error;
    Out.Detail = W < 0 ? std::strerror(errno) : "zero-length write";
    return Out;
  }
  return Out;
}

} // namespace

FrameResult exo::service::writeFrame(int Fd, const std::string &Payload) {
  support::ignoreSigpipe();
  if (Payload.size() > MaxFrameBytes)
    return {FrameStatus::TooLarge, "",
            "refusing to send a frame above the protocol ceiling"};
  std::string Buf = frameBytes(Payload);
  return writeAll(Fd, Buf.data(), Buf.size());
}

FrameResult exo::service::clientWriteFrame(int Fd,
                                           const std::string &Payload) {
  support::ignoreSigpipe();
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (!FI.enabled())
    return writeFrame(Fd, Payload);

  std::string Buf = frameBytes(Payload);

  if (FI.shouldFire(support::Fault::SockDisconnect)) {
    // Send roughly half the frame, then vanish: the server must classify
    // this as TruncatedEof and fail only this connection's work.
    size_t Half = Buf.size() / 2;
    writeAll(Fd, Buf.data(), Half ? Half : 1);
    ::shutdown(Fd, SHUT_RDWR);
    return {FrameStatus::TruncatedEof, "",
            "injected mid-frame disconnect after " + std::to_string(Half) +
                " bytes"};
  }

  bool Loris = FI.shouldFire(support::Fault::SockSlowLoris);
  bool Short = Loris || FI.shouldFire(support::Fault::SockShortRead);
  if (!Short)
    return writeFrame(Fd, Payload);

  // Dribble the frame out byte by byte; the slow-loris variant also
  // sleeps, long enough that a short server-side frame deadline fires.
  size_t Chunk = 1;
  for (size_t Sent = 0; Sent < Buf.size(); Sent += Chunk) {
    size_t N = Buf.size() - Sent < Chunk ? Buf.size() - Sent : Chunk;
    FrameResult R = writeAll(Fd, Buf.data() + Sent, N);
    if (!R.ok())
      return R;
    if (Loris)
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    else if ((Sent & 0x3F) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {};
}

//===----------------------------------------------------------------------===//
// ClientConnection
//===----------------------------------------------------------------------===//

ClientConnection::~ClientConnection() { close(); }

ClientConnection::ClientConnection(ClientConnection &&O) noexcept
    : Fd(O.Fd) {
  O.Fd = -1;
}

ClientConnection &ClientConnection::operator=(ClientConnection &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void ClientConnection::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Expected<ClientConnection> ClientConnection::connectUnix(
    const std::string &Path) {
  support::ignoreSigpipe();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(Error::Kind::Internal,
                     std::string("socket: ") + std::strerror(errno));
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "unix socket path too long: " + Path);
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "connect " + Path + ": " + E);
  }
  ClientConnection C;
  C.Fd = Fd;
  return C;
}

Expected<ClientConnection> ClientConnection::connectTcp(int Port) {
  support::ignoreSigpipe();
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(Error::Kind::Internal,
                     std::string("socket: ") + std::strerror(errno));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "connect 127.0.0.1:" + std::to_string(Port) + ": " + E);
  }
  ClientConnection C;
  C.Fd = Fd;
  return C;
}

FrameResult ClientConnection::send(const Json &Request, bool WithFaults) {
  if (Fd < 0)
    return {FrameStatus::Error, "", "connection is closed"};
  std::string Payload = Request.dump();
  return WithFaults ? clientWriteFrame(Fd, Payload)
                    : writeFrame(Fd, Payload);
}

FrameResult ClientConnection::receive(int TimeoutMillis) {
  if (Fd < 0)
    return {FrameStatus::Error, "", "connection is closed"};
  return readFrame(Fd, TimeoutMillis, TimeoutMillis);
}

Expected<Json> ClientConnection::call(const Json &Request,
                                      int TimeoutMillis) {
  FrameResult W = send(Request, /*WithFaults=*/false);
  if (!W.ok())
    return makeError(Error::Kind::Internal,
                     std::string("send failed: ") +
                         frameStatusName(W.Status) +
                         (W.Detail.empty() ? "" : ": " + W.Detail));
  FrameResult R = receive(TimeoutMillis);
  if (!R.ok())
    return makeError(Error::Kind::Internal,
                     std::string("receive failed: ") +
                         frameStatusName(R.Status) +
                         (R.Detail.empty() ? "" : ": " + R.Detail));
  return Json::parse(R.Payload);
}
