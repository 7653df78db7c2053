#include "net/net_io.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "util/failpoint.hpp"

namespace treelab::net {

namespace fp = util::failpoint;

IoResult read_some(int fd, char* buf, std::size_t cap) {
  std::size_t want = cap;
  if (auto hit = fp::check("net.read")) {
    switch (hit->mode) {
      case util::FailMode::kShortRead:
        // Deliver at most `arg` bytes this round; TCP delivers short reads
        // naturally, so robust code must already cope — this just forces
        // the boundary to land anywhere, including inside a frame header.
        want = std::min<std::size_t>(
            cap, std::max<std::uint64_t>(hit->arg, 1));
        break;
      case util::FailMode::kError:
      case util::FailMode::kThrow:
      case util::FailMode::kAllocFail:
      case util::FailMode::kShortWrite:
      case util::FailMode::kTornWrite:
      case util::FailMode::kCorrupt:
        // A read-side fault is a reset: whatever the peer had in flight is
        // gone and the connection is unusable.
        return {IoStatus::kError, 0};
    }
  }
  for (;;) {
    const ssize_t r = ::recv(fd, buf, want, 0);
    if (r > 0) return {IoStatus::kOk, static_cast<std::size_t>(r)};
    if (r == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::kWouldBlock, 0};
    return {IoStatus::kError, 0};
  }
}

IoResult write_some(int fd, const char* buf, std::size_t n) {
  std::size_t want = n;
  bool tear_after = false;
  if (auto hit = fp::check("net.write")) {
    switch (hit->mode) {
      case util::FailMode::kShortWrite:
        want = std::min<std::size_t>(n, hit->arg);
        if (want == 0) return {IoStatus::kWouldBlock, 0};
        break;
      case util::FailMode::kTornWrite:
        want = std::min<std::size_t>(n, hit->arg);
        tear_after = true;
        break;
      case util::FailMode::kError:
      case util::FailMode::kThrow:
      case util::FailMode::kAllocFail:
      case util::FailMode::kShortRead:
      case util::FailMode::kCorrupt:
        return {IoStatus::kError, 0};
    }
  }
  std::size_t sent = 0;
  while (sent < want) {
    const ssize_t w = ::send(fd, buf + sent, want - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return {IoStatus::kError, 0};
  }
  if (tear_after) {
    // The bytes above are on the wire; cutting the stream here leaves the
    // peer holding a frame prefix — exactly what a mid-send crash does.
    ::shutdown(fd, SHUT_RDWR);
    return {IoStatus::kError, sent};
  }
  if (sent == 0 && want > 0) return {IoStatus::kWouldBlock, 0};
  return {IoStatus::kOk, sent};
}

void maybe_corrupt_frame(std::string& frame, std::size_t from) {
  if (frame.size() <= from) return;
  if (auto hit = fp::check("net.frame.corrupt")) {
    const std::size_t range = frame.size() - from;
    const std::size_t at = from + static_cast<std::size_t>(hit->arg % range);
    frame[at] = static_cast<char>(frame[at] ^ 0x20);
  }
}

bool write_frame(int fd, std::string frame) {
  maybe_corrupt_frame(frame);
  for (std::size_t sent = 0; sent < frame.size();) {
    const IoResult w = write_some(fd, frame.data() + sent, frame.size() - sent);
    if (w.status != IoStatus::kOk) return false;
    sent += w.n;
  }
  return true;
}

int connect_with_timeout(const std::string& host, std::uint16_t port,
                         int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for the follower's loop
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace treelab::net
