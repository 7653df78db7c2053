#include "net/client.hpp"

#include <unistd.h>

#include <chrono>

#include "net/frame.hpp"
#include "net/net_io.hpp"

namespace treelab::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

QueryClient::QueryClient(const std::string& host, std::uint16_t port,
                         int timeout_ms)
    : fd_(connect_with_timeout(host, port, timeout_ms)) {}

QueryClient::~QueryClient() { close(); }

void QueryClient::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool QueryClient::round_trip(MsgType type, std::string_view payload,
                             int timeout_ms, Frame& reply) {
  if (fd_ < 0) return false;
  if (!write_frame(fd_, encode_frame(type, payload))) {
    close();
    return false;
  }
  FrameReader reader;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const FrameReader::Status st = reader.next(reply);
    if (st == FrameReader::Status::kFrame) return true;
    if (st == FrameReader::Status::kBad || Clock::now() >= deadline) break;
    if (!wait_readable(fd_, 100)) continue;
    char buf[64 * 1024];
    const IoResult r = read_some(fd_, buf, sizeof(buf));
    if (r.status == IoStatus::kOk)
      reader.feed(buf, r.n);
    else if (r.status != IoStatus::kWouldBlock)
      break;
  }
  close();
  return false;
}

QueryClient::BatchStatus QueryClient::query_batch(
    std::span<const serve::Request> reqs,
    std::vector<serve::QueryResult>& out, int timeout_ms) {
  Frame f;
  if (!round_trip(MsgType::kQueryBatch, encode_query_batch(reqs), timeout_ms,
                  f))
    return BatchStatus::kError;
  if (f.type == MsgType::kOverloaded) return BatchStatus::kOverloaded;
  if (f.type != MsgType::kQueryReply || !decode_query_reply(f.payload, out) ||
      out.size() != reqs.size()) {
    close();
    return BatchStatus::kError;
  }
  return BatchStatus::kOk;
}

bool QueryClient::stats(std::vector<StatLine>& out, int timeout_ms) {
  Frame f;
  if (!round_trip(MsgType::kStats, {}, timeout_ms, f)) return false;
  if (f.type != MsgType::kStatsReply || !decode_stats_reply(f.payload, out)) {
    close();
    return false;
  }
  return true;
}

}  // namespace treelab::net
