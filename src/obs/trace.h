#pragma once
// Low-overhead span tracing with Chrome trace-event JSON export.
//
// One trace shows the full plan -> execute -> re-solve loop on a single
// timeline: solver phases (phase1/phase2/factor/certify/colgen rounds),
// service events (submit, hit class, dedup, drift re-solve) and executor
// activities (per-transfer/per-compute occupations and admission waits)
// all land in the same file, loadable in Perfetto or chrome://tracing.
//
// Cost model:
//  * tracing DISABLED (the default): OBS_SPAN is one relaxed atomic load
//    and a dead branch — no clock read, no allocation, nothing retained;
//  * tracing ENABLED: each completed span is two steady_clock reads plus
//    one slot write in the calling thread's own bounded ring (guarded by a
//    per-ring mutex that only the export path ever contends). Rings never
//    block and never grow: when full they overwrite the oldest event and
//    count the drop, so a runaway producer costs events, not memory or
//    latency.
//
// Span names and categories must be string literals (or otherwise outlive
// the trace): the ring stores pointers, not copies. Virtual-time emitters
// (the discrete-event executor) use lanes + emit() with explicit
// timestamps; everything falls on the shared ns-since-enable() timeline.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace ssco::obs {

class Trace {
 public:
  /// Switches tracing on, clearing any previous events and restarting the
  /// timeline. `events_per_thread` bounds each thread's ring.
  static void enable(std::size_t events_per_thread = 1 << 14);
  static void disable();
  [[nodiscard]] static bool enabled();

  /// Nanoseconds since enable() — the shared timeline.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Records a completed span on the calling thread's ring. `name` and
  /// `cat` must be string literals. `arg` (bytes moved, pivots, ...) is
  /// attached when `has_arg`. No-op when disabled.
  static void record(const char* name, const char* cat, std::uint64_t ts_ns,
                     std::uint64_t dur_ns, std::uint64_t arg = 0,
                     bool has_arg = false);

  /// Registers (or finds) a named virtual timeline — e.g. one per executor
  /// port — and returns its id for emit().
  [[nodiscard]] static std::uint32_t lane(const std::string& name);

  /// Records a span on a lane instead of the calling thread's row. Used by
  /// emitters whose time axis is not "this thread's wall clock" (the
  /// event-exec virtual clock, the threaded engine's per-port occupations).
  static void emit(std::uint32_t lane, const char* name, const char* cat,
                   std::uint64_t ts_ns, std::uint64_t dur_ns,
                   std::uint64_t arg = 0, bool has_arg = false);

  /// Buffered events across all rings (drops excluded).
  [[nodiscard]] static std::size_t event_count();
  /// Events lost to ring overwrites since enable().
  [[nodiscard]] static std::uint64_t dropped();

  /// Writes the Chrome trace-event JSON ({"traceEvents": [...]}): thread /
  /// lane name metadata first, then every span sorted deterministically by
  /// (ts, row, name, dur). Does not stop tracing.
  static void write_json(std::ostream& os);
  /// write_json to `path`; false when the file cannot be opened.
  static bool save(const std::string& path);
};

/// RAII span: stamps the start on construction (when tracing is on) and
/// records [start, now] under `name` on destruction.
class SpanGuard {
 public:
  SpanGuard(const char* name, const char* cat)
      : name_(name), cat_(cat), active_(Trace::enabled()),
        start_ns_(active_ ? Trace::now_ns() : 0) {}
  ~SpanGuard() {
    if (active_) {
      record_arg_ ? Trace::record(name_, cat_, start_ns_,
                                  Trace::now_ns() - start_ns_, arg_, true)
                  : Trace::record(name_, cat_, start_ns_,
                                  Trace::now_ns() - start_ns_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a numeric argument reported with the span (pivots, bytes...).
  void set_arg(std::uint64_t arg) {
    arg_ = arg;
    record_arg_ = true;
  }

 private:
  const char* name_;
  const char* cat_;
  bool active_;
  bool record_arg_ = false;
  std::uint64_t start_ns_;
  std::uint64_t arg_ = 0;
};

// Scoped span macros; the variable name embeds the line so several spans
// can nest in one scope.
#define OBS_SPAN_CONCAT2(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT2(a, b)
#define OBS_SPAN_CAT(name, cat) \
  ::ssco::obs::SpanGuard OBS_SPAN_CONCAT(obs_span_, __LINE__)(name, cat)
#define OBS_SPAN(name) OBS_SPAN_CAT(name, "solver")

}  // namespace ssco::obs
