#include "net/replicator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "net/frame.hpp"
#include "net/net_io.hpp"

namespace treelab::net {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Replicator::Replicator(serve::ForestIndex& index, ReplicatorOptions opt)
    : index_(index),
      opt_(std::move(opt)),
      rng_(opt_.backoff_seed | 1),
      force_snapshot_(opt_.force_snapshot) {
  if (opt_.tree >= index_.tree_count())
    throw std::invalid_argument(
        "net::Replicator: target tree does not exist in the index");
  register_metrics();
}

void Replicator::register_metrics() {
  if constexpr (!obs::kEnabled) return;
  obs::Registry& reg = obs::Registry::global();
  const auto expose = [&](const char* name,
                          const std::atomic<std::uint64_t>& a) {
    obs_guards_.push_back(reg.set_callback(
        name, [&a] { return a.load(std::memory_order_relaxed); }));
  };
  expose("net.replicator.connects", ctr_.connects);
  expose("net.replicator.connect_failures", ctr_.connect_failures);
  expose("net.replicator.reconnects", ctr_.reconnects);
  expose("net.replicator.snapshots_applied", ctr_.snapshots_applied);
  expose("net.replicator.deltas_applied", ctr_.deltas_applied);
  expose("net.replicator.chain_rejects", ctr_.chain_rejects);
  expose("net.replicator.frame_errors", ctr_.frame_errors);
  expose("net.replicator.ends_seen", ctr_.ends_seen);
  expose("net.replicator.caught_ups_seen", ctr_.caught_ups_seen);
}

Replicator::~Replicator() { stop(); }

std::uint64_t Replicator::next_rand() noexcept {
  std::uint64_t x = rng_;  // xorshift64 — cheap, deterministic per seed
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_ = x;
  return x;
}

void Replicator::backoff(int consecutive_failures) {
  if (consecutive_failures <= 0) return;
  const int exp = std::min(consecutive_failures - 1, 10);
  const std::int64_t cap = std::max<std::int64_t>(opt_.backoff_max_ms, 1);
  const std::int64_t base = std::min<std::int64_t>(
      cap, std::max<std::int64_t>(opt_.backoff_min_ms, 1) << exp);
  // Jitter in [base/2, base]: simultaneous reconnects from many followers
  // must not re-arrive as one synchronized stampede.
  const std::int64_t half = std::max<std::int64_t>(base / 2, 1);
  std::int64_t ms = half + static_cast<std::int64_t>(
                               next_rand() % static_cast<std::uint64_t>(half + 1));
  // Sleep in slices so stop() stays prompt.
  while (ms > 0 && !stop_.load(std::memory_order_acquire)) {
    const std::int64_t slice = std::min<std::int64_t>(ms, 20);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

bool Replicator::apply_snapshot(const std::string& payload) {
  std::uint64_t chain = 0;
  std::string_view container;
  if (!decode_snapshot_header(payload, chain, container)) {
    ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  try {
    std::istringstream is(std::string(container), std::ios::binary);
    core::LabelStore::LoadedArena loaded = core::LabelStore::load_arena(is);
    // Adopt the leader's chain verbatim — the journal preserves it across
    // checkpoint folds, so re-deriving it from the bytes would diverge.
    index_.update(opt_.tree, std::move(loaded), chain);
  } catch (const std::exception&) {
    // The container failed validation: this snapshot is garbage and the
    // local state is now untrusted only in the sense that it never
    // changed; insist on a fresh snapshot next session.
    ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
    force_snapshot_ = true;
    return false;
  }
  force_snapshot_ = false;
  progressed_ = true;
  ctr_.snapshots_applied.fetch_add(1, std::memory_order_relaxed);
  chain_gauge_.set(chain);
  return true;
}

bool Replicator::apply_delta(const std::string& payload) {
  core::LabelDelta d;
  try {
    std::istringstream is(payload, std::ios::binary);
    d = core::LabelStore::load_delta(is);
  } catch (const std::exception&) {
    ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The container checksum says the bytes survived the wire; the chain
  // check says they are the *right* bytes — a record whose content does
  // not hash to its claimed new_chain must never advance the epoch.
  if (d.new_chain != core::LabelStore::chain_hash(d.base_chain, d)) {
    ctr_.chain_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  try {
    index_.apply_delta(opt_.tree, d);
  } catch (const std::exception&) {
    // Does not chain from our live epoch (leader restarted, or we raced
    // our own resubscribe): reconnect and resubscribe from where we are.
    ctr_.chain_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  progressed_ = true;
  ctr_.deltas_applied.fetch_add(1, std::memory_order_relaxed);
  chain_gauge_.set(d.new_chain);
  return true;
}

Replicator::SessionEnd Replicator::session(int fd) {
  // Pessimistic until the leader says otherwise: a fresh session is
  // behind until its first kCaughtUp (or kEnd) arrives.
  behind_gauge_.set(1);
  Subscribe sub;
  sub.force_snapshot = force_snapshot_;
  sub.chain = index_.chain(opt_.tree);
  if (!write_frame(fd, encode_frame(MsgType::kSubscribe,
                                    encode_subscribe(sub))))
    return SessionEnd::kReconnect;

  FrameReader reader;
  Clock::time_point last_frame = Clock::now();
  Frame f;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return SessionEnd::kStopped;
    const FrameReader::Status st = reader.next(f);
    if (st == FrameReader::Status::kBad) {
      // Torn or corrupted stream: the chain state is intact (nothing
      // unverified was applied), so a plain resubscribe recovers.
      ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      return SessionEnd::kReconnect;
    }
    if (st == FrameReader::Status::kNeedMore) {
      if (!wait_readable(fd, 100)) {
        if (std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - last_frame)
                .count() > opt_.read_timeout_ms)
          return SessionEnd::kReconnect;
        continue;
      }
      char buf[64 * 1024];
      const IoResult r = read_some(fd, buf, sizeof(buf));
      if (r.status == IoStatus::kOk)
        reader.feed(buf, r.n);
      else if (r.status != IoStatus::kWouldBlock)
        return SessionEnd::kReconnect;
      continue;
    }
    last_frame = Clock::now();
    switch (f.type) {
      case MsgType::kSnapshot:
        behind_gauge_.set(1);  // more of the stream may follow
        if (!apply_snapshot(f.payload)) return SessionEnd::kReconnect;
        break;
      case MsgType::kDelta:
        behind_gauge_.set(1);
        if (!apply_delta(f.payload)) return SessionEnd::kReconnect;
        break;
      case MsgType::kCaughtUp: {
        std::uint64_t leader_chain = 0;
        if (!decode_caught_up(f.payload, leader_chain)) {
          ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
          return SessionEnd::kReconnect;
        }
        ctr_.caught_ups_seen.fetch_add(1, std::memory_order_relaxed);
        behind_gauge_.set(0);
        break;
      }
      case MsgType::kEnd:
        ctr_.ends_seen.fetch_add(1, std::memory_order_relaxed);
        behind_gauge_.set(0);  // a drained leader has nothing we lack
        if (opt_.stop_on_end) return SessionEnd::kEnded;
        break;  // leader drained; keep the session for its successor
      default:
        // kError, or a message that has no business on this stream.
        ctr_.frame_errors.fetch_add(1, std::memory_order_relaxed);
        return SessionEnd::kReconnect;
    }
  }
}

bool Replicator::run() {
  // The calling thread (or the one start() spawned) IS the follow loop;
  // assert its confinement capability for the whole run.
  const util::ThreadRoleGuard on_follow_thread(follow_role_);
  int fails = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return true;
    if (opt_.max_attempts >= 0 && fails >= opt_.max_attempts) return false;
    const int fd = connect_with_timeout(opt_.host, opt_.port,
                                        opt_.connect_timeout_ms);
    if (fd < 0) {
      ctr_.connect_failures.fetch_add(1, std::memory_order_relaxed);
      backoff(++fails);
      continue;
    }
    ctr_.connects.fetch_add(1, std::memory_order_relaxed);
    progressed_ = false;
    const SessionEnd end = session(fd);
    ::close(fd);
    if (end == SessionEnd::kEnded || end == SessionEnd::kStopped) return true;
    ctr_.reconnects.fetch_add(1, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_acquire)) return true;
    // A session that applied anything made progress: the leader is alive
    // and the fault was transient — restart the backoff ladder.
    fails = progressed_ ? 1 : fails + 1;
    backoff(fails);
  }
}

void Replicator::start() {
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    ended_cleanly_.store(run(), std::memory_order_release);
  });
  started_ = true;
}

void Replicator::stop() {
  stop_.store(true, std::memory_order_release);
  if (started_) {
    thread_.join();
    started_ = false;
  }
}

Replicator::Stats Replicator::stats() const {
  Stats s;
  s.connects = ctr_.connects.load(std::memory_order_relaxed);
  s.connect_failures =
      ctr_.connect_failures.load(std::memory_order_relaxed);
  s.reconnects = ctr_.reconnects.load(std::memory_order_relaxed);
  s.snapshots_applied =
      ctr_.snapshots_applied.load(std::memory_order_relaxed);
  s.deltas_applied = ctr_.deltas_applied.load(std::memory_order_relaxed);
  s.chain_rejects = ctr_.chain_rejects.load(std::memory_order_relaxed);
  s.frame_errors = ctr_.frame_errors.load(std::memory_order_relaxed);
  s.ends_seen = ctr_.ends_seen.load(std::memory_order_relaxed);
  s.caught_ups_seen = ctr_.caught_ups_seen.load(std::memory_order_relaxed);
  return s;
}

}  // namespace treelab::net
