#pragma once
// Spans recorded by the benchmark around its calls into the program's
// layers. Held in memory and written out as Chrome trace-event JSON when
// the run ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog {
 public:
  /// Records [a, b] under `name` on the calling thread's row `tid`.
  void record(const std::string& name, int tid, Clock::time_point a,
              Clock::time_point b) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({name, tid, ns(a), ns(b) - ns(a)});
  }

  /// Times `fn` as one span and returns its duration in ms.
  template <typename Fn>
  double time(const std::string& name, int tid, Fn&& fn) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    record(name, tid, a, b);
    return ms_between(a, b);
  }

  bool save(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      os << (i ? "," : "") << "{\"name\":\"" << e.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
         << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Event {
    std::string name;
    int tid;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace perfbench
