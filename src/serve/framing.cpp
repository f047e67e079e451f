#include "serve/framing.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mera::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw FramingError(what + ": " + std::strerror(errno));
}

}  // namespace

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw FramingError("connection closed mid-frame (" +
                         std::to_string(got) + " of " + std::to_string(n) +
                         " bytes)");
    }
    if (errno == EINTR) continue;
    fail_errno("read");
  }
  return true;
}

void write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE here, never as a
    // process-wide SIGPIPE — per-connection error isolation starts at the
    // syscall. Falls back to write() for non-socket fds (tests use pipes).
    ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) r = ::write(fd, p + sent, n - sent);
    if (r >= 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    fail_errno("write");
  }
}

std::optional<Frame> read_frame(int fd, std::uint64_t max_payload) {
  struct Header {
    std::uint32_t magic;
    std::uint32_t type;
    std::uint64_t len;
  } h{};
  static_assert(sizeof(Header) == 16);
  if (!read_exact(fd, &h, sizeof h)) return std::nullopt;
  if (h.magic != kFrameMagic) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", static_cast<unsigned>(h.magic));
    throw FramingError(std::string("bad frame magic ") + hex +
                       " — peer is not speaking the meralignerd protocol");
  }
  if (h.len > max_payload)
    throw FramingError("frame payload of " + std::to_string(h.len) +
                       " bytes exceeds the " + std::to_string(max_payload) +
                       "-byte limit");
  Frame f;
  f.type = static_cast<FrameType>(h.type);
  f.payload.resize(static_cast<std::size_t>(h.len));
  if (h.len > 0 && !read_exact(fd, f.payload.data(), f.payload.size()))
    throw FramingError("connection closed before frame payload");
  return f;
}

void write_frame(int fd, FrameType type, std::string_view payload) {
  struct Header {
    std::uint32_t magic;
    std::uint32_t type;
    std::uint64_t len;
  } h{kFrameMagic, static_cast<std::uint32_t>(type), payload.size()};
  write_all(fd, &h, sizeof h);
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw FramingError("socket path too long for sockaddr_un: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  std::error_code ignored;
  std::filesystem::remove(path, ignored);  // stale socket from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("bind " + path);
  }
  if (::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("listen " + path);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw FramingError("socket path too long for sockaddr_un: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("connect " + path);
  }
  return fd;
}

}  // namespace mera::serve
