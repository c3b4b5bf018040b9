//===- service/Protocol.h - Wire protocol of exocc-serve -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service speaks length-prefixed JSON over a stream socket:
/// every frame is a 4-byte big-endian payload length followed by exactly
/// that many bytes of UTF-8 JSON. Framing is deliberately dumb — no
/// pipelined framing tricks, no compression — because the failure modes
/// are where the engineering goes:
///
///  * reads are poll()-driven with two deadlines: an idle deadline before
///    the first byte of a frame (so server loops can wake up and notice
///    drain requests) and a completion deadline for the rest of it (so a
///    slow-loris peer that trickles one byte a minute is disconnected
///    instead of pinning a connection thread forever);
///  * a declared length above MaxFrameBytes is rejected before any
///    allocation, so garbage or hostile prefixes cannot OOM the daemon;
///  * EOF is classified: between frames it is a clean hangup, inside a
///    frame it is a protocol error the caller reports;
///  * writes loop over partial progress and rely on the process-wide
///    SIGPIPE policy (support::ignoreSigpipe) to turn dead peers into
///    EPIPE errors.
///
/// Payloads are support::Json documents; this file adds only the framing,
/// the client connection and the output fingerprint.
///
/// clientWriteFrame is the fault-injectable variant the soak harness and
/// tests use to misbehave on purpose (support::FaultInjector kinds
/// sock-short-read, sock-disconnect, sock-slowloris); writeFrame itself
/// is always honest.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SERVICE_PROTOCOL_H
#define EXO_SERVICE_PROTOCOL_H

#include "support/Error.h"
#include "support/Json.h"

#include <cstdint>
#include <string>

namespace exo {
namespace service {

/// Requests and responses are support::Json documents.
using support::Json;

/// FNV-1a 64-bit as 16 hex digits: the service's output fingerprint (the
/// soak harness's bit-identity check compares these instead of shipping
/// whole C files back over the socket).
std::string fingerprint(const std::string &S);

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Hard ceiling on one frame's payload; declared lengths above it are a
/// protocol error, rejected before allocation.
constexpr uint32_t MaxFrameBytes = 32u << 20;

enum class FrameStatus {
  Ok,         ///< a whole frame arrived / was sent
  Eof,        ///< clean hangup between frames (read only)
  IdleTimeout,///< no first byte within the idle deadline (read only)
  Timeout,    ///< frame started but did not complete in time (slow loris)
  TooLarge,   ///< declared length exceeds MaxFrameBytes
  TruncatedEof,///< peer vanished mid-frame
  Error,      ///< errno-level socket failure (EPIPE, ECONNRESET, ...)
};

const char *frameStatusName(FrameStatus S);

struct FrameResult {
  FrameStatus Status = FrameStatus::Ok;
  std::string Payload; ///< valid when Status == Ok
  std::string Detail;  ///< diagnosis for the failure statuses

  bool ok() const { return Status == FrameStatus::Ok; }
};

/// Reads one frame. Waits up to \p IdleTimeoutMillis for the first byte
/// (-1 = forever), then up to \p FrameTimeoutMillis for the remainder
/// (-1 = forever). Loops over partial reads and EINTR.
FrameResult readFrame(int Fd, int IdleTimeoutMillis, int FrameTimeoutMillis);

/// Writes one frame, looping over partial writes. Returns Ok or Error.
FrameResult writeFrame(int Fd, const std::string &Payload);

/// The misbehaving writer used by the soak client and the protocol tests:
/// consults support::FaultInjector before sending. sock-short-read
/// dribbles the frame in 1-byte writes (the receiver must reassemble);
/// sock-slowloris inserts long pauses between those dribbles (the
/// receiver's frame deadline must fire); sock-disconnect sends roughly
/// half the frame and shuts the socket down. Faults compose with an
/// honest fallback when none fire.
FrameResult clientWriteFrame(int Fd, const std::string &Payload);

//===----------------------------------------------------------------------===//
// Client connection helper
//===----------------------------------------------------------------------===//

/// A blocking client connection (unix or TCP localhost), used by the soak
/// harness, the tests, and exocc-serve's own admin subcommands.
class ClientConnection {
public:
  ClientConnection() = default;
  ~ClientConnection();
  ClientConnection(ClientConnection &&O) noexcept;
  ClientConnection &operator=(ClientConnection &&O) noexcept;
  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Connects to a unix socket path.
  static Expected<ClientConnection> connectUnix(const std::string &Path);
  /// Connects to 127.0.0.1:port.
  static Expected<ClientConnection> connectTcp(int Port);

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// One request/response round trip: send \p Request (honestly), wait up
  /// to \p TimeoutMillis for the matching reply frame.
  Expected<Json> call(const Json &Request, int TimeoutMillis = 30000);

  /// Raw sends/receives for tests and the pipelining soak client.
  FrameResult send(const Json &Request, bool WithFaults = false);
  FrameResult receive(int TimeoutMillis);

private:
  int Fd = -1;
};

} // namespace service
} // namespace exo

#endif // EXO_SERVICE_PROTOCOL_H
