// In-memory span recorder for the traced run.
//
// A span is one call from the benchmark into a library layer: a name whose
// prefix up to the first '.' is the layer ("serve.add_file" -> serve), a
// start and end on the steady clock, the span that was open around it on
// the same thread (its parent), and the request id it belongs to. Spans
// are appended to per-thread buffers, so recording takes no lock, and are
// written out once the run ends. With tracing off a Scope reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index in the same thread's buffer
  std::uint64_t request = 0;
  std::uint64_t calls = 1;  ///< calls the span covers (timed loops)
};

class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  ///< stack of open span indices
  };

  /// Process-wide tracer; off until enable().
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// The calling thread's buffer (registered on first use).
  Buffer& local() {
    thread_local Buffer* b = nullptr;
    if (b == nullptr) {
      const std::lock_guard<std::mutex> g(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      b = buffers_.back().get();
    }
    return *b;
  }

  /// Every thread's buffer. Call only once recording threads are joined.
  [[nodiscard]] const std::vector<std::unique_ptr<Buffer>>& buffers() const {
    return buffers_;
  }

  /// RAII span around one call (or one timed loop of `calls` calls).
  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t request = 0,
                   std::uint64_t calls = 1) {
      Tracer& t = get();
      if (!t.on()) return;
      buf_ = &t.local();
      Span s;
      s.name = name;
      s.parent = buf_->open.empty() ? -1 : buf_->open.back();
      s.request = request != 0 || s.parent < 0
                      ? request
                      : buf_->spans[static_cast<std::size_t>(s.parent)].request;
      s.calls = calls;
      idx_ = static_cast<std::int64_t>(buf_->spans.size());
      buf_->open.push_back(idx_);
      s.start_ns = now_ns();
      buf_->spans.push_back(s);
    }
    ~Scope() {
      if (buf_ == nullptr) return;
      buf_->spans[static_cast<std::size_t>(idx_)].end_ns = now_ns();
      buf_->open.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buf_ = nullptr;
    std::int64_t idx_ = 0;
  };

  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover (children nest inside their parent on one thread).
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    std::map<std::string, double> out;
    for (const auto& b : buffers_) {
      std::vector<std::uint64_t> child(b->spans.size(), 0);
      for (const Span& s : b->spans)
        if (s.parent >= 0)
          child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Span& s = b->spans[i];
        const std::uint64_t dur = s.end_ns - s.start_ns;
        const std::uint64_t self = dur > child[i] ? dur - child[i] : 0;
        const std::string name = s.name;
        out[name.substr(0, name.find('.'))] += static_cast<double>(self) / 1e6;
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
  }

  /// Writes every span as one JSON object per line after a header line.
  /// Span ids are global (thread buffers laid end to end); parent refers
  /// to such an id, -1 for a root span. Returns false on an I/O error.
  bool write(const std::string& path, const std::string& header_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header_json.c_str());
    std::int64_t base = 0;
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      const auto& spans = buffers_[t]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"id\":%lld,\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu,\"parent\":%lld,\"thread\":%zu,"
                     "\"request\":%llu,\"calls\":%llu}\n",
                     static_cast<long long>(base + static_cast<std::int64_t>(i)),
                     s.name, static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<long long>(s.parent < 0 ? -1 : base + s.parent),
                     t, static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(s.calls));
      }
      base += static_cast<std::int64_t>(spans.size());
    }
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;
  bool on_ = false;
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
