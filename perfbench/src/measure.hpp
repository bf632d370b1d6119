// Measurement arithmetic shared by every workload of the benchmark:
// percentiles with the "at least 10 samples beyond" rule, span self
// time, due-time latency for open-loop phases, and the delivery
// comparison behind failed_ratio. Header-only and free of library
// dependencies so tests/measure_test.cpp can check it on hand-built
// inputs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// Nearest-rank percentile `pct` (0 < pct <= 100) of `sorted` (ascending):
// the sample at 1-based rank ceil(pct/100 * n).
inline size_t PercentileRank(size_t n, double pct) {
  size_t rank = size_t(std::ceil(pct / 100.0 * double(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double pct) {
  if (sorted.empty()) return 0;
  return sorted[PercentileRank(sorted.size(), pct) - 1];
}

// A percentile may be reported only when at least 10 samples lie beyond
// it: n - rank >= 10.
inline bool PercentileSupported(size_t n, double pct) {
  return n > 0 && n - PercentileRank(n, pct) >= 10;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ---------------------------------------------------------------------------
// Open-loop schedule and due-time latency
// ---------------------------------------------------------------------------

// Item i of an open-loop phase is due at t0 + i / rate, whether or not
// the system kept up: a stall therefore shows up in the latency of every
// later item it delayed, not only in the one that was slow.
struct Schedule {
  int64_t t0_ns = 0;
  double rate_per_s = 1;
  int64_t Due(size_t i) const {
    return t0_ns + int64_t(double(i) * 1e9 / rate_per_s);
  }
};

inline double LatencyMs(int64_t due_ns, int64_t done_ns) {
  return double(done_ns - due_ns) / 1e6;
}

// Waits until `t_ns`: sleeps while far away, spins for the last stretch
// so sub-millisecond schedules stay accurate.
inline void WaitUntil(int64_t t_ns) {
  for (;;) {
    int64_t left = t_ns - NowNs();
    if (left <= 0) return;
    if (left > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200'000));
  }
}

// ---------------------------------------------------------------------------
// Delivery comparison (failed_ratio)
// ---------------------------------------------------------------------------

// One delivered (or expected) output: `key` identifies the input it
// answers (record ordinal or publisher seq), `fp` fingerprints its bytes.
struct Delivery {
  uint64_t key = 0;
  uint64_t fp = 0;
};

struct Mismatch {
  size_t expected = 0;
  size_t missing = 0;    // expected, never delivered
  size_t extra = 0;      // delivered, not expected (or delivered twice)
  size_t different = 0;  // delivered with other bytes than expected
  size_t failed() const { return missing + extra + different; }
};

// Compares deliveries against the oracle. Never aborts: every mismatch
// counts against the expected count.
inline Mismatch CompareDeliveries(const std::vector<Delivery>& expected,
                                  const std::vector<Delivery>& got) {
  Mismatch m;
  m.expected = expected.size();
  std::unordered_map<uint64_t, std::pair<uint64_t, bool>> want;
  want.reserve(expected.size());
  for (const auto& d : expected) want[d.key] = {d.fp, false};
  for (const auto& d : got) {
    auto it = want.find(d.key);
    if (it == want.end() || it->second.second) {
      ++m.extra;
      continue;
    }
    it->second.second = true;
    if (it->second.first != d.fp) ++m.different;
  }
  for (const auto& [key, v] : want)
    if (!v.second) ++m.missing;
  return m;
}

// Order-sensitive 64-bit mixing (FNV-1a over 8-byte words plus a final
// avalanche), used for record/elem and input fingerprints.
struct Hasher {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
    h ^= h >> 29;
  }
  void AddBytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t w = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __builtin_memcpy(&w, p + i, 8);
      Add(w);
    }
    w = 0;
    for (size_t k = 0; i < n; ++i, ++k) w |= uint64_t(p[i]) << (8 * k);
    Add(w ^ (uint64_t(n) << 56));
  }
  uint64_t Value() const {
    uint64_t x = h;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// One traced call into a layer. `parent` is an index into the same
// thread's span list (-1 for a root); `req` is the request id — the
// record ordinal on an archive pass, the input-message index on the
// live pipeline.
struct Span {
  const char* name = "";
  int32_t parent = -1;
  uint64_t req = 0;
  int64_t start = 0;
  int64_t end = 0;
};

// Self time of every span: its duration minus the part of its interval
// that its children cover (overlapping children counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0 && size_t(s.parent) < spans.size())
      kids[size_t(s.parent)].push_back({s.start, s.end});
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= cur_e) {
        cur_e = std::max(cur_e, b);
      } else {
        if (open) covered += cur_e - cur_s;
        cur_s = a;
        cur_e = b;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_s;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// In-memory span recorder. Each thread appends to its own list (parent
// links stay thread-local, so nesting is by call stack); lists are
// merged only when the run ends. Disabled tracers record nothing and
// cost one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), id_(NextId()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> stack;
  };

 public:

  class Scope {
   public:
    Scope(Tracer* t, const char* name, uint64_t req) {
      if (!t || !t->enabled_) return;
      buf_ = &t->Local();
      idx_ = int32_t(buf_->spans.size());
      int32_t parent = buf_->stack.empty() ? -1 : buf_->stack.back();
      buf_->spans.push_back({name, parent, req, NowNs(), 0});
      buf_->stack.push_back(idx_);
    }
    ~Scope() {
      if (!buf_) return;
      buf_->spans[size_t(idx_)].end = NowNs();
      buf_->stack.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buf_ = nullptr;
    int32_t idx_ = -1;
  };

  // Per-name count, total and self time over every thread's spans.
  std::map<std::string, SpanTotals> Totals() const {
    std::map<std::string, SpanTotals> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, buf] : buffers_) {
      auto self = SelfTimes(buf.spans);
      for (size_t i = 0; i < buf.spans.size(); ++i) {
        auto& t = out[buf.spans[i].name];
        ++t.count;
        t.total_ns += buf.spans[i].end - buf.spans[i].start;
        t.self_ns += self[i];
      }
    }
    return out;
  }

  // Durations (ns) of every span named `name`, across threads.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, buf] : buffers_)
      for (const auto& s : buf.spans)
        if (name == s.name) out.push_back(double(s.end - s.start));
    return out;
  }

  size_t span_count() const {
    size_t n = 0;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, buf] : buffers_) n += buf.spans.size();
    return n;
  }

  // Writes every span as one JSON object per line:
  // {"thread":T,"id":I,"name":N,"parent":P,"req":R,"start":S,"end":E}.
  template <typename Out>
  void Write(Out& out) const {
    std::lock_guard<std::mutex> lk(mu_);
    size_t thread = 0;
    for (const auto& [id, buf] : buffers_) {
      for (size_t i = 0; i < buf.spans.size(); ++i) {
        const Span& s = buf.spans[i];
        out << "{\"thread\":" << thread << ",\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"parent\":" << s.parent << ",\"req\":" << s.req
            << ",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
      }
      ++thread;
    }
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  // The calling thread's buffer, looked up under the lock only on the
  // thread's first span for this tracer.
  Buffer& Local() {
    thread_local uint64_t cached_id = 0;
    thread_local Buffer* cached = nullptr;
    if (cached_id != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      cached = &buffers_[std::this_thread::get_id()];
      cached_id = id_;
    }
    return *cached;
  }

  const bool enabled_;
  const uint64_t id_;
  mutable std::mutex mu_;
  // std::map: node-based, so a thread's Buffer never moves while other
  // threads insert theirs.
  std::map<std::thread::id, Buffer> buffers_;
};

}  // namespace perfbench
