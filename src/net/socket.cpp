#include "net/socket.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/check.hpp"

namespace fnr::net {

OwnedFd& OwnedFd::operator=(OwnedFd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

OwnedFd::~OwnedFd() { reset(); }

void OwnedFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FNR_REQUIRE(path.size() < sizeof(addr.sun_path),
              "unix socket path '" << path << "' exceeds the "
                                   << (sizeof(addr.sun_path) - 1)
                                   << "-byte sun_path limit");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

OwnedFd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  FNR_CHECK_MSG(fd.valid(),
                "socket(AF_UNIX): " << std::strerror(errno));
  // A stale socket file from a killed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. A *live*
  // daemon is protected by its own lock on the checkpoint workdir, not by
  // the socket file.
  ::unlink(path.c_str());
  FNR_REQUIRE(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "cannot bind socket '" << path << "': " << std::strerror(errno));
  FNR_CHECK_MSG(::listen(fd.get(), backlog) == 0,
                "listen('" << path << "'): " << std::strerror(errno));
  return fd;
}

OwnedFd connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  FNR_CHECK_MSG(fd.valid(),
                "socket(AF_UNIX): " << std::strerror(errno));
  FNR_REQUIRE(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
              "cannot connect to socket '" << path
                                           << "': " << std::strerror(errno));
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  FNR_CHECK_MSG(flags >= 0, "fcntl(F_GETFL): " << std::strerror(errno));
  FNR_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(F_SETFL, O_NONBLOCK): " << std::strerror(errno));
}

Pipe make_pipe() {
  int fds[2] = {-1, -1};
  FNR_CHECK_MSG(::pipe(fds) == 0, "pipe: " << std::strerror(errno));
  Pipe p;
  p.wait.reset(fds[0]);
  p.wake.reset(fds[1]);
  set_nonblocking(p.wait.get());
  set_nonblocking(p.wake.get());
  return p;
}

void wake_pipe(int fd) noexcept {
  const char byte = 1;
  // EAGAIN means the pipe buffer already holds unread wake bytes, which is
  // exactly as good as one more; other errors can only mean shutdown.
  (void)!::write(fd, &byte, 1);
}

void drain_pipe(int fd) noexcept {
  char sink[256];
  while (::read(fd, sink, sizeof(sink)) > 0) {
  }
}

}  // namespace fnr::net
