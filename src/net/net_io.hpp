// net/net_io — the socket primitives the server and the follower share,
// with the net.* failpoints threaded through every operation so the fault
// fuzzer can exercise the wire exactly like the crash fuzzer exercises the
// filesystem:
//
//   net.accept        a freshly accepted connection is dropped on the floor
//   net.read          error  -> the read reports a connection reset
//                     short-read -> only `arg` bytes of this read arrive
//   net.write         error  -> the write reports a broken pipe
//                     short-write -> only `arg` bytes of this chunk go out
//                     torn-write -> `arg` bytes go out, then the fd is shut
//                                   down — a frame torn mid-flight
//   net.frame.corrupt corrupt -> one byte of the outgoing frame is flipped
//                     (arg picks the offset) — the peer's checksum must
//                     catch it
//
// All functions work on nonblocking OR blocking fds and report outcomes as
// values, not exceptions: a socket error from a peer is an expected input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace treelab::net {

/// Outcome of one read/write attempt.
enum class IoStatus : std::uint8_t {
  kOk = 0,        ///< `n` bytes transferred (n may be 0 for writes)
  kWouldBlock = 1,///< nonblocking fd has nothing/no room right now
  kClosed = 2,    ///< peer closed (read side: clean EOF)
  kError = 3,     ///< errno-level failure (or injected fault)
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t n = 0;
};

/// One recv() with the net.read failpoint applied.
[[nodiscard]] IoResult read_some(int fd, char* buf, std::size_t cap);

/// One send() (MSG_NOSIGNAL) with the net.write failpoint applied. A
/// torn-write hit transfers `arg` bytes and returns kError after shutting
/// the socket down — the peer sees a frame cut mid-flight.
[[nodiscard]] IoResult write_some(int fd, const char* buf, std::size_t n);

/// Applies the net.frame.corrupt failpoint to `frame[from..)`: if armed, one
/// byte is XOR-flipped (hit arg picks the offset, modulo the range). Call on
/// exactly the bytes of one outgoing frame.
void maybe_corrupt_frame(std::string& frame, std::size_t from = 0);

/// Applies maybe_corrupt_frame to `frame`, then writes all of it to a
/// blocking fd through write_some. False on the first write that does not
/// report kOk; the caller then treats the connection as unusable.
[[nodiscard]] bool write_frame(int fd, std::string frame);

/// Blocking connect to host:port with a deadline. Returns the connected fd
/// (in blocking mode) or -1.
[[nodiscard]] int connect_with_timeout(const std::string& host,
                                       std::uint16_t port, int timeout_ms);

/// poll() for readability. True when readable; false on timeout/error.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

}  // namespace treelab::net
