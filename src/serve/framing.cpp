#include "serve/framing.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mera::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw FramingError(what + ": " + std::strerror(errno));
}

/// The low `n` bytes of `v` at `p`, least significant first.
void put_le(unsigned char* p, std::uint64_t v, int n) noexcept {
  for (int i = 0; i < n; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

/// The `n`-byte little-endian integer at `p`.
std::uint64_t get_le(const unsigned char* p, int n) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
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
  std::array<unsigned char, kFrameHeaderBytes> h{};
  if (!read_exact(fd, h.data(), h.size())) return std::nullopt;
  const auto magic = static_cast<std::uint32_t>(get_le(h.data(), 4));
  const auto type = static_cast<std::uint32_t>(get_le(h.data() + 4, 4));
  const std::uint64_t len = get_le(h.data() + 8, 8);
  if (magic != kFrameMagic) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", static_cast<unsigned>(magic));
    throw FramingError(std::string("bad frame magic ") + hex +
                       " — peer is not speaking the meralignerd protocol");
  }
  if (len > max_payload)
    throw FramingError("frame payload of " + std::to_string(len) +
                       " bytes exceeds the " + std::to_string(max_payload) +
                       "-byte limit");
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.resize(static_cast<std::size_t>(len));
  if (len > 0 && !read_exact(fd, f.payload.data(), f.payload.size()))
    throw FramingError("connection closed before frame payload");
  return f;
}

void write_frame(int fd, FrameType type, std::string_view payload) {
  std::array<unsigned char, kFrameHeaderBytes> h{};
  put_le(h.data(), kFrameMagic, 4);
  put_le(h.data() + 4, static_cast<std::uint32_t>(type), 4);
  put_le(h.data() + 8, payload.size(), 8);
  write_all(fd, h.data(), h.size());
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
