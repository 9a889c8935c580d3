#include "net/framing.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

#include "util/check.hpp"

namespace fnr::net {

namespace {

std::uint32_t decode_prefix(const char* data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  return (std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
         (std::uint32_t{bytes[2]} << 8) | std::uint32_t{bytes[3]};
}

}  // namespace

std::string encode_frame(const std::string& payload,
                         std::uint32_t max_frame) {
  FNR_CHECK_MSG(!payload.empty(), "frame: refusing to encode empty payload");
  FNR_CHECK_MSG(payload.size() <= max_frame,
                "frame: payload of " << payload.size()
                                     << " bytes exceeds the " << max_frame
                                     << "-byte cap");
  std::string out;
  out.reserve(kFramePrefixSize + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>(len & 0xFF));
  out += payload;
  return out;
}

void FrameReader::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool FrameReader::next(std::string* payload) {
  if (buffer_.size() < kFramePrefixSize) return false;
  const std::uint32_t len = decode_prefix(buffer_.data());
  // Validate the prefix the moment it is complete — before waiting for (or
  // buffering) a hostile payload.
  FNR_CHECK_MSG(len != 0, "frame: zero-length frame");
  FNR_CHECK_MSG(len <= max_frame_, "frame: declared length "
                                       << len << " exceeds the " << max_frame_
                                       << "-byte cap");
  if (buffer_.size() < kFramePrefixSize + len) return false;
  payload->assign(buffer_, kFramePrefixSize, len);
  buffer_.erase(0, kFramePrefixSize + len);
  return true;
}

void FrameWriter::enqueue(const std::string& payload) {
  pending_ += encode_frame(payload, max_frame_);
}

bool FrameWriter::flush_with(const WriteFn& write_some) {
  while (!pending_.empty()) {
    const long wrote = write_some(pending_.data(), pending_.size());
    if (wrote < 0) return false;
    if (wrote == 0) return true;  // would block: try again on POLLOUT
    pending_.erase(0, static_cast<std::size_t>(wrote));
  }
  return true;
}

bool FrameWriter::flush_to_fd(int fd) {
  return flush_with([fd](const char* data, std::size_t size) -> long {
    const ssize_t wrote = ::send(fd, data, size, MSG_NOSIGNAL);
    if (wrote >= 0) return static_cast<long>(wrote);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    return -1;
  });
}

}  // namespace fnr::net
