// Length-prefixed message framing for the fnrd wire protocol.
//
// A frame is a 4-byte big-endian payload length followed by that many
// payload bytes (JSON text by convention, but framing is payload-agnostic).
// The length prefix makes message boundaries explicit on a byte stream —
// the announce/query/response idiom of classic rendezvous servers — and
// lets the reader reject oversized or zero-length frames *before* buffering
// a hostile payload.
//
// FrameReader and FrameWriter are plain incremental state machines with no
// socket knowledge: feed() accepts whatever recv() returned (any split,
// byte by byte if need be) and flush handles short writes, so both sides
// drop into a poll loop unchanged and unit tests can drive every partial
// read/short write case without a socket. A malformed prefix (zero length,
// or a length above the cap) throws CheckError and poisons the reader —
// framing offers no way to resynchronize a byte stream after a bad length,
// so the connection must be dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace fnr::net {

/// Default cap on one frame's payload (16 MiB) — far above any legitimate
/// spec or report, far below a memory-exhaustion payload.
inline constexpr std::uint32_t kDefaultMaxFrame = 16u << 20;

/// Bytes in the length prefix.
inline constexpr std::size_t kFramePrefixSize = 4;

/// Encodes one frame: big-endian length prefix + payload. Throws
/// CheckError on an empty payload or one above `max_frame`.
[[nodiscard]] std::string encode_frame(const std::string& payload,
                                       std::uint32_t max_frame =
                                           kDefaultMaxFrame);

/// Incremental frame decoder. Feed arbitrary byte chunks; pop complete
/// payloads with next(). Throws CheckError on a zero-length or oversized
/// prefix, after which the reader (and the connection it decodes) is
/// unusable.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  /// Appends received bytes to the decode buffer.
  void feed(const char* data, std::size_t size);

  /// Pops the next complete payload into *payload. Returns false when the
  /// buffered bytes do not yet contain a full frame.
  [[nodiscard]] bool next(std::string* payload);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }

  /// True when the buffer holds part of a frame (a partial prefix or a
  /// partial payload) — i.e. a peer that disconnects now tore a message.
  [[nodiscard]] bool mid_frame() const noexcept { return !buffer_.empty(); }

 private:
  std::uint32_t max_frame_;
  std::string buffer_;
};

/// Incremental frame encoder with short-write handling: enqueue whole
/// payloads, then flush as far as the sink accepts. The pending byte count
/// is the backpressure signal — a serving loop disconnects a client whose
/// pending bytes exceed its budget.
class FrameWriter {
 public:
  explicit FrameWriter(std::uint32_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  /// Frames `payload` and appends it to the pending buffer.
  void enqueue(const std::string& payload);

  /// True when no bytes are waiting to be written.
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Bytes framed but not yet accepted by a flush.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_.size();
  }

  /// Writes pending bytes through `write_some(data, size)`, which returns
  /// the byte count accepted (possibly short), 0 to stop without error
  /// (would-block), or -1 on a write error. Returns false only in the
  /// error case; short and zero writes leave the remainder pending.
  using WriteFn = std::function<long(const char* data, std::size_t size)>;
  [[nodiscard]] bool flush_with(const WriteFn& write_some);

  /// flush_with over send(2) on a (typically non-blocking) socket: EAGAIN /
  /// EWOULDBLOCK / EINTR leave bytes pending, any other errno fails. A
  /// peer that has closed its end fails the flush (EPIPE) rather than
  /// raising SIGPIPE, which would kill a process that embeds the daemon.
  [[nodiscard]] bool flush_to_fd(int fd);

 private:
  std::uint32_t max_frame_;
  std::string pending_;
};

}  // namespace fnr::net
