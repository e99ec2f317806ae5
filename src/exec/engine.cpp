#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace ssco::exec {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic payload byte for (type, message id): lets the receiver
/// detect misrouted or corrupted chunks without any side channel.
std::uint8_t pattern_byte(std::size_t type, std::uint64_t id) {
  return static_cast<std::uint8_t>(0x5Au ^ (type * 131u) ^ (id * 7u) ^
                                   (id >> 8));
}

enum class StepKind { kSend, kRecv, kComp };

/// Runtime state of one port (a node's OUT, IN or CPU lane).
struct PortRt {
  const std::vector<std::size_t>* order = nullptr;
  std::size_t pos = 0;  // current template within *order
  std::size_t sub = 0;  // current chunk / slice within that template
  double tat = 0.0;     // GCRA theoretical arrival time (pacing)
  double busy = 0.0;    // accumulated occupation, token seconds
  double busy_t0 = 0.0;
  bool in_flight = false;
  // Retransmission state (out-ports under fault injection): consecutive
  // losses of the head chunk, and the backoff gate before the next attempt.
  std::size_t attempts = 0;
  double retry_at = 0.0;
};

/// A step the scheduler admitted; byte work happens outside the lock.
struct Admitted {
  StepKind kind = StepKind::kSend;
  graph::NodeId node = graph::kInvalidId;
  std::size_t tmpl = 0;
  Chunk chunk;          // send: to fill + push; recv: popped, to validate
  bool payload_ok = true;
  bool lost = false;    // injected chunk loss: wire time burned, no delivery
};

class Engine {
 public:
  Engine(const ExecProgram& p, const ExecOptions& opt, bool threaded)
      : p_(p), opt_(opt), threaded_(threaded) {}

  ExecReport run() {
    ExecReport report;
    report.simulated = !threaded_;
    if (!p_.oneport_error.empty()) {
      report.fault.code = FaultCode::kOneportStatic;
      report.fault.message = "one-port check failed: " + p_.oneport_error;
      report.oneport_violations = 1;
      return report;
    }
    if (p_.ops_per_period <= Rational(0)) {
      report.fault.code = FaultCode::kNoSchedule;
      report.fault.message = "schedule delivers no operations";
      return report;
    }
    init();
    init_trace();
    if (threaded_) {
      run_threaded();
    } else {
      run_event();
    }
    fill_report(report);
    return report;
  }

 private:
  // ---- setup -------------------------------------------------------------

  void init() {
    const std::size_t nodes = p_.num_nodes();
    faults_ = FaultRuntime(opt_.faults, p_.platform->num_edges(), nodes);
    avail_.assign(nodes, std::vector<Rational>(p_.num_types));
    delivered_.assign(p_.num_types, Rational(0));
    forwards_.assign(nodes, std::vector<char>(p_.num_types, 0));
    channels_.reserve(p_.transfers.size());
    reserved_.assign(p_.transfers.size(), 0);
    for (std::size_t i = 0; i < p_.transfers.size(); ++i) {
      channels_.emplace_back(opt_.channel_chunks);
    }

    verify_ = p_.verify;
    if (verify_) {
      next_id_.assign(p_.num_types, 0);
      idq_.assign(nodes, std::vector<std::deque<
                             std::pair<std::uint64_t, std::uint64_t>>>(
                             p_.num_types));
      marks_.assign(p_.num_types, std::vector<bool>());
    }

    // Token buckets: rate = the ACTUAL (drift-scaled) link rate; burst must
    // cover the largest chunk on the edge or that chunk could never start.
    std::vector<double> max_chunk(p_.platform->num_edges(),
                                  static_cast<double>(opt_.chunk_bytes));
    for (const TransferTemplate& t : p_.transfers) {
      forwards_[t.src][t.type] = 1;
      for (const ChunkSpec& c : t.chunks) {
        max_chunk[t.edge] =
            std::max(max_chunk[t.edge], static_cast<double>(c.bytes));
      }
    }
    buckets_.resize(p_.platform->num_edges());
    for (graph::EdgeId e = 0; e < p_.platform->num_edges(); ++e) {
      buckets_[e] = TokenBucket(p_.actual_rate[e],
                                opt_.burst_chunks * max_chunk[e]);
    }
    edge_bytes_.assign(p_.platform->num_edges(), 0);
    edge_busy_.assign(p_.platform->num_edges(), 0.0);
    edge_bytes_t0_ = edge_bytes_;
    edge_busy_t0_ = edge_busy_;

    // Pipeline priming: one full period of everything each node consumes, so
    // period p always works on stock produced by period p-1 and intra-period
    // availability waits never cycle (deadlock freedom; warmup absorbs the
    // resulting transient).
    for (const TransferTemplate& t : p_.transfers) {
      if (!unlimited(t.src, t.type)) avail_[t.src][t.type] += t.messages;
    }
    for (const ComputeTemplate& c : p_.comps) {
      if (!unlimited(c.node, c.left)) avail_[c.node][c.left] += c.count;
      if (!unlimited(c.node, c.right)) avail_[c.node][c.right] += c.count;
    }
    if (verify_) {
      for (graph::NodeId u = 0; u < nodes; ++u) {
        for (std::size_t k = 0; k < p_.num_types; ++k) {
          const Rational& primed = avail_[u][k];
          if (primed == Rational(0)) continue;
          if (!primed.is_integer()) {
            verify_ = false;
            break;
          }
          const auto count =
              static_cast<std::uint64_t>(primed.num().to_int64());
          idq_[u][k].emplace_back(next_id_[k], count);
          next_id_[k] += count;
        }
        if (!verify_) break;
      }
    }

    out_.resize(nodes);
    in_.resize(nodes);
    cpu_.resize(nodes);
    for (graph::NodeId u = 0; u < nodes; ++u) {
      out_[u].order = &p_.out_order[u];
      in_[u].order = &p_.in_order[u];
      cpu_[u].order = &p_.cpu_order[u];
    }

    const Rational warm = Rational(static_cast<std::int64_t>(
                              opt_.warmup_periods)) *
                          p_.ops_per_period;
    const Rational total =
        Rational(static_cast<std::int64_t>(opt_.warmup_periods +
                                           opt_.measure_periods)) *
        p_.ops_per_period;
    warmup_ops_ = static_cast<std::uint64_t>(warm.ceil().to_int64());
    total_ops_ = static_cast<std::uint64_t>(total.ceil().to_int64());
    if (total_ops_ <= warmup_ops_) total_ops_ = warmup_ops_ + 1;
  }

  [[nodiscard]] bool unlimited(graph::NodeId u, std::size_t type) const {
    return p_.supplier_of_type[type] == u;
  }

  // ---- tracing -----------------------------------------------------------

  /// One trace lane per (node, port): occupations render as rows under the
  /// solver/service thread rows on the same timeline. Engine time (wall for
  /// the threaded backend, virtual for the event backend) maps onto the
  /// trace clock via the offset captured here, so a simulate run's spans
  /// still land where the run happened.
  void init_trace() {
    if (!obs::Trace::enabled()) return;
    tracing_ = true;
    trace_offset_ = obs::Trace::now_ns();
    const std::size_t nodes = p_.num_nodes();
    out_lane_.resize(nodes);
    in_lane_.resize(nodes);
    cpu_lane_.resize(nodes);
    for (graph::NodeId u = 0; u < nodes; ++u) {
      const std::string name = p_.platform->node_name(u);
      out_lane_[u] = obs::Trace::lane(name + " out");
      in_lane_[u] = obs::Trace::lane(name + " in");
      cpu_lane_[u] = obs::Trace::lane(name + " cpu");
    }
  }

  [[nodiscard]] std::uint64_t ns_at(double t) const {
    return trace_offset_ + static_cast<std::uint64_t>(t * 1e9);
  }

  /// Emits the just-committed occupation [end - seconds, end] on `lane`,
  /// preceded by a "wait" span covering the admission gap since the port's
  /// previous occupation ended.
  void trace_span(std::uint32_t lane, const char* name, double prev_end,
                  double end, double seconds, std::uint64_t bytes,
                  bool has_bytes) {
    if (!tracing_) return;
    const double start = end - seconds;
    if (start - prev_end > 1e-12) {
      obs::Trace::emit(lane, "wait", "exec", ns_at(prev_end),
                       ns_at(start) - ns_at(prev_end));
    }
    obs::Trace::emit(lane, name, "exec", ns_at(start),
                     static_cast<std::uint64_t>(seconds * 1e9), bytes,
                     has_bytes);
  }

  // ---- admission (scheduler lock held) -----------------------------------

  /// Scans every port for an admissible step at `now`. On success fills
  /// `out` (all bookkeeping already committed) and returns true. Otherwise
  /// `next_time` is the earliest instant a currently time-blocked step
  /// becomes ready (kInf if every blocked step waits on another worker).
  bool try_admit(double now, Admitted& out, double& next_time) {
    next_time = kInf;
    for (graph::NodeId u = 0; u < out_.size(); ++u) {
      if (admit_port(out_[u], StepKind::kSend, u, now, out, next_time)) {
        return true;
      }
      if (admit_port(in_[u], StepKind::kRecv, u, now, out, next_time)) {
        return true;
      }
      if (admit_port(cpu_[u], StepKind::kComp, u, now, out, next_time)) {
        return true;
      }
    }
    return false;
  }

  bool admit_port(PortRt& port, StepKind kind, graph::NodeId u, double now,
                  Admitted& out, double& next_time) {
    if (port.in_flight || port.order->empty()) return false;
    const std::size_t tmpl = (*port.order)[port.pos];
    switch (kind) {
      case StepKind::kSend:
        return admit_send(port, u, tmpl, now, out, next_time);
      case StepKind::kRecv:
        return admit_recv(port, u, tmpl, now, out, next_time);
      case StepKind::kComp:
        return admit_comp(port, u, tmpl, now, out, next_time);
    }
    return false;
  }

  bool admit_send(PortRt& port, graph::NodeId u, std::size_t tmpl, double now,
                  Admitted& out, double& next_time) {
    const TransferTemplate& t = p_.transfers[tmpl];
    const ChunkSpec& c = t.chunks[port.sub];
    if (channels_[tmpl].size() + reserved_[tmpl] >= channels_[tmpl].capacity()) {
      return false;  // backpressure: receiver will drain
    }
    if (!unlimited(u, t.type) && avail_[u][t.type] < c.messages) {
      return false;  // upstream producer will commit and notify
    }
    const double slack = opt_.burst_chunks * c.seconds;
    double rt =
        std::max(port.tat - slack,
                 buckets_[t.edge].ready_time(now, static_cast<double>(c.bytes)));
    if (faults_.active()) {
      rt = std::max(rt, port.retry_at);  // retransmit backoff gate
      rt = std::max(rt, faults_.blackout_release(t.edge, now));
    }
    if (rt > now) {
      next_time = std::min(next_time, rt);
      return false;
    }
    // Commit. A collapsed link stretches the chunk's wire time by 1/scale,
    // so its effective rate drops and drift inference sees the fault; a
    // lost chunk burns that wire time (and its tokens) but delivers
    // nothing, and the port retries the SAME chunk after a capped
    // exponential backoff.
    double seconds = c.seconds;
    bool lost = false;
    if (faults_.active()) {
      seconds /= faults_.rate_scale(t.edge, now);
      if (port.attempts > 0) ++retransmits_;
      lost = faults_.lose_next_chunk(t.edge);
    }
    buckets_[t.edge].consume(now, static_cast<double>(c.bytes));
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + seconds;
    port.busy += seconds;
    edge_busy_[t.edge] += seconds;
    if (lost) {
      // No availability debit, no identity consumption, no channel push:
      // exactly-once bookkeeping never saw this crossing.
      ++chunks_lost_;
      ++port.attempts;
      port.retry_at = port.tat + faults_.backoff(port.attempts);
      if (port.attempts > faults_.max_retransmits()) {
        set_fault(now, FaultCode::kRetransmitLimit,
                  "chunk lost " + std::to_string(port.attempts) +
                      " consecutive times",
                  t.edge, u);
      }
      trace_span(out_lane_.empty() ? 0 : out_lane_[u], "lost", prev_end,
                 port.tat, seconds, c.bytes, true);
      out.kind = StepKind::kSend;
      out.node = u;
      out.tmpl = tmpl;
      out.chunk = Chunk{};
      out.lost = true;
      port.in_flight = true;
      return true;
    }
    port.attempts = 0;
    port.retry_at = 0.0;
    if (!unlimited(u, t.type)) avail_[u][t.type] -= c.messages;
    edge_bytes_[t.edge] += c.bytes;
    trace_span(out_lane_.empty() ? 0 : out_lane_[u], "send", prev_end,
               port.tat, seconds, c.bytes, true);
    out.kind = StepKind::kSend;
    out.node = u;
    out.tmpl = tmpl;
    out.chunk = Chunk{};
    out.chunk.type = t.type;
    out.chunk.bytes = c.bytes;
    out.chunk.arrive_time = port.tat;  // fully crossed once the wire time ran
    if (faults_.active()) {
      out.chunk.arrive_time += faults_.next_jitter(t.edge);
    }
    if (verify_) {
      if (unlimited(u, t.type)) {
        out.chunk.msg_ranges.emplace_back(next_id_[t.type], c.whole_msgs);
        next_id_[t.type] += c.whole_msgs;
      } else if (!take_ids(idq_[u][t.type], c.whole_msgs,
                           out.chunk.msg_ranges)) {
        set_fault(now, FaultCode::kIdentityUnderflow,
                  "message identity underflow at node " +
                      p_.platform->node_name(u),
                  t.edge, u);
      }
    }
    ++reserved_[tmpl];
    port.in_flight = true;
    return true;
  }

  bool admit_recv(PortRt& port, graph::NodeId u, std::size_t tmpl, double now,
                  Admitted& out, double& next_time) {
    const TransferTemplate& t = p_.transfers[tmpl];
    const ChunkSpec& c = t.chunks[port.sub];
    if (channels_[tmpl].empty()) return false;  // sender will notify
    const double slack = opt_.burst_chunks * c.seconds;
    const double rt =
        std::max(channels_[tmpl].front().arrive_time, port.tat - slack);
    if (rt > now) {
      next_time = std::min(next_time, rt);
      return false;
    }
    // Commit: the one-port model charges receive time too.
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + c.seconds;
    port.busy += c.seconds;
    trace_span(in_lane_.empty() ? 0 : in_lane_[u], "recv", prev_end, port.tat,
               c.seconds, c.bytes, true);
    out.kind = StepKind::kRecv;
    out.node = u;
    out.tmpl = tmpl;
    out.chunk = channels_[tmpl].pop();
    avail_[u][t.type] += c.messages;
    const bool sink = p_.sink_of_type[t.type] == u;
    if (sink) {
      delivered_[t.type] += c.messages;
      update_ops(now);
    }
    if (verify_) {
      if (sink) {
        for (const auto& [begin, count] : out.chunk.msg_ranges) {
          mark_delivered(t.type, begin, count);
        }
      }
      if (!sink || forwards_[u][t.type]) {
        auto& q = idq_[u][t.type];
        for (const auto& range : out.chunk.msg_ranges) q.push_back(range);
      }
    }
    port.in_flight = true;
    return true;
  }

  bool admit_comp(PortRt& port, graph::NodeId u, std::size_t tmpl, double now,
                  Admitted& out, double& next_time) {
    const ComputeTemplate& ct = p_.comps[tmpl];
    const ComputeSlice& s = ct.slices[port.sub];
    if (!unlimited(u, ct.left) && avail_[u][ct.left] < s.count) return false;
    if (!unlimited(u, ct.right) && avail_[u][ct.right] < s.count) return false;
    const double slack = opt_.burst_chunks * s.seconds;
    const double rt = port.tat - slack;
    if (rt > now) {
      next_time = std::min(next_time, rt);
      return false;
    }
    // Commit the merge v[k,l] (+) v[l+1,m] -> v[k,m]. A slowed-down node
    // stretches the slice by 1/scale, same convention as link collapse.
    double seconds = s.seconds;
    if (faults_.active()) seconds /= faults_.node_scale(u, now);
    if (!unlimited(u, ct.left)) avail_[u][ct.left] -= s.count;
    if (!unlimited(u, ct.right)) avail_[u][ct.right] -= s.count;
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + seconds;
    port.busy += seconds;
    trace_span(cpu_lane_.empty() ? 0 : cpu_lane_[u], "comp", prev_end,
               port.tat, seconds, 0, false);
    if (p_.sink_of_type[ct.product] == u) {
      delivered_[ct.product] += s.count;
      update_ops(now);
    } else {
      avail_[u][ct.product] += s.count;
    }
    out.kind = StepKind::kComp;
    out.node = u;
    out.tmpl = tmpl;
    port.in_flight = true;
    return true;
  }

  /// Online one-port monitor: admission with the burst slack may start at
  /// most `slack` before the port's previous occupation ended; anything
  /// beyond that is a genuine overlap (an engine bug worth counting).
  void check_occupancy(const PortRt& port, double now, double slack) {
    if (now + slack + 1e-9 < port.tat) ++violations_;
  }

  static bool take_ids(
      std::deque<std::pair<std::uint64_t, std::uint64_t>>& q,
      std::uint64_t count,
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
    while (count > 0) {
      if (q.empty()) return false;
      auto& [begin, len] = q.front();
      const std::uint64_t take = std::min(len, count);
      out.emplace_back(begin, take);
      begin += take;
      len -= take;
      count -= take;
      if (len == 0) q.pop_front();
    }
    return true;
  }

  void mark_delivered(std::size_t type, std::uint64_t begin,
                      std::uint64_t count) {
    auto& marks = marks_[type];
    if (begin + count > marks.size()) {
      marks.resize(std::max<std::size_t>(2 * marks.size(),
                                         static_cast<std::size_t>(begin + count)),
                   false);
    }
    for (std::uint64_t id = begin; id < begin + count; ++id) {
      if (marks[id]) {
        ++delivery_errors_;  // the same message arrived twice
      } else {
        marks[id] = true;
      }
    }
  }

  void update_ops(double now) {
    std::uint64_t ops = std::numeric_limits<std::uint64_t>::max();
    if (p_.kind == ExecProgram::Kind::kFlow) {
      for (std::size_t k = 0; k < p_.num_types; ++k) {
        ops = std::min(ops, static_cast<std::uint64_t>(
                                delivered_[k].floor().to_int64()));
      }
    } else {
      std::size_t full = 0;
      for (std::size_t k = 0; k < p_.num_types; ++k) {
        if (p_.sink_of_type[k] != graph::kInvalidId) full = k;
      }
      ops = static_cast<std::uint64_t>(delivered_[full].floor().to_int64());
    }
    ops_done_ = ops;
    if (!t0_stamped_ && ops_done_ >= warmup_ops_) {
      t0_stamped_ = true;
      t0_ = now;
      ops0_ = ops_done_;
      edge_bytes_t0_ = edge_bytes_;
      edge_busy_t0_ = edge_busy_;
      for (auto* ports : {&out_, &in_, &cpu_}) {
        for (PortRt& port : *ports) port.busy_t0 = port.busy;
      }
    }
    if (t0_stamped_ && !t1_stamped_ && ops_done_ >= total_ops_) {
      t1_stamped_ = true;
      t1_ = now;
      ops1_ = ops_done_;
      edge_bytes_t1_ = edge_bytes_;
      edge_busy_t1_ = edge_busy_;
      port_busy_t1_.clear();
      for (auto* ports : {&out_, &in_, &cpu_}) {
        for (PortRt& port : *ports) {
          port_busy_t1_.push_back(port.busy - port.busy_t0);
        }
      }
      done_ = true;
    }
  }

  void set_fault(double now, FaultCode code, std::string message,
                 graph::EdgeId edge = graph::kInvalidId,
                 graph::NodeId node = graph::kInvalidId) {
    if (fault_.ok()) {
      fault_.code = code;
      fault_.message = std::move(message);
      fault_.edge = edge;
      fault_.node = node;
      fault_.at_seconds = now;
    }
    done_ = true;
  }

  // ---- completion --------------------------------------------------------

  /// Payload work done outside the scheduler lock (threaded mode only).
  void byte_work(Admitted& a) {
    if (a.kind == StepKind::kSend) {
      if (a.lost) return;  // nothing crossed; nothing to materialize
      a.chunk.payload.resize(a.chunk.bytes);
      fill_payload(a.chunk);
    } else if (a.kind == StepKind::kRecv) {
      a.payload_ok = validate_payload(a.chunk);
      a.chunk.payload.clear();
    }
  }

  void fill_payload(Chunk& chunk) const {
    if (chunk.msg_ranges.empty()) {
      std::memset(chunk.payload.data(), pattern_byte(chunk.type, 0),
                  chunk.payload.size());
      return;
    }
    std::size_t offset = 0;
    const std::size_t B = p_.bytes_per_message;
    for (const auto& [begin, count] : chunk.msg_ranges) {
      for (std::uint64_t id = begin; id < begin + count; ++id) {
        const std::size_t len = std::min(B, chunk.payload.size() - offset);
        std::memset(chunk.payload.data() + offset,
                    pattern_byte(chunk.type, id), len);
        offset += len;
      }
    }
  }

  [[nodiscard]] bool validate_payload(const Chunk& chunk) const {
    auto check_region = [&](std::size_t begin, std::size_t len,
                            std::uint8_t expect) {
      if (len == 0) return true;
      const std::uint8_t* d = chunk.payload.data() + begin;
      if (d[0] != expect || d[len - 1] != expect || d[len / 2] != expect) {
        return false;
      }
      for (std::size_t i = 0; i < len; i += 1021) {
        if (d[i] != expect) return false;
      }
      return true;
    };
    if (chunk.msg_ranges.empty()) {
      return check_region(0, chunk.payload.size(),
                          pattern_byte(chunk.type, 0));
    }
    std::size_t offset = 0;
    const std::size_t B = p_.bytes_per_message;
    for (const auto& [begin, count] : chunk.msg_ranges) {
      for (std::uint64_t id = begin; id < begin + count; ++id) {
        const std::size_t len = std::min(B, chunk.payload.size() - offset);
        if (!check_region(offset, len, pattern_byte(chunk.type, id))) {
          return false;
        }
        offset += len;
      }
    }
    return true;
  }

  /// Re-acquires the scheduler lock conceptually: called with it held.
  void complete(Admitted& a, double now) {
    PortRt* port = nullptr;
    std::size_t steps = 0;
    if (a.kind == StepKind::kSend) {
      port = &out_[a.node];
      if (a.lost) {
        // The same chunk stays at (pos, sub): the port will retransmit it
        // once its backoff gate opens. Losses still count as liveness for
        // the watchdog — the engine is making (doomed) wire progress.
        port->in_flight = false;
        last_progress_ = now;
        return;
      }
      steps = p_.transfers[a.tmpl].chunks.size();
      --reserved_[a.tmpl];
      channels_[a.tmpl].push(std::move(a.chunk));
    } else if (a.kind == StepKind::kRecv) {
      port = &in_[a.node];
      steps = p_.transfers[a.tmpl].chunks.size();
      if (!a.payload_ok) ++delivery_errors_;
    } else {
      port = &cpu_[a.node];
      steps = p_.comps[a.tmpl].slices.size();
    }
    ++port->sub;
    if (port->sub >= steps) {
      port->sub = 0;
      port->pos = (port->pos + 1) % port->order->size();
    }
    port->in_flight = false;
    last_progress_ = now;
  }

  // ---- drivers -----------------------------------------------------------

  void run_event() {
    double vnow = 0.0;
    while (!done_) {
      Admitted a;
      double next_time = kInf;
      if (try_admit(vnow, a, next_time)) {
        complete(a, vnow);  // no byte work on the virtual path
        continue;
      }
      if (next_time == kInf) {
        set_fault(vnow, FaultCode::kDeadlock,
                  "discrete-event executor deadlocked (no admissible "
                  "step and no pending wake time)");
        return;
      }
      if (opt_.deadline_seconds > 0 && next_time > opt_.deadline_seconds) {
        set_fault(opt_.deadline_seconds, FaultCode::kDeadlineExceeded,
                  "run deadline of " + std::to_string(opt_.deadline_seconds) +
                      "s fired before the window closed");
        return;
      }
      vnow = next_time;
    }
  }

  void run_threaded() {
    const auto start = std::chrono::steady_clock::now();
    auto now_fn = [start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    std::size_t workers = opt_.workers;
    if (workers == 0) {
      workers = std::min<std::size_t>(
          std::max(1u, std::thread::hardware_concurrency()), 8);
    }
    workers_used_ = workers;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([this, now_fn] { worker_loop(now_fn); });
    }
    for (std::thread& t : pool) t.join();
  }

  template <typename NowFn>
  void worker_loop(NowFn now_fn) {
    // Sanitizer builds run 5-20x slower; scale the watchdog so instrumented
    // CI can't fire it on a healthy run.
    const double watchdog =
        opt_.watchdog_seconds * (sanitized_build() ? 5.0 : 1.0);
    std::unique_lock lock(mu_);
    while (!done_) {
      const double now = now_fn();
      if (opt_.deadline_seconds > 0 && now > opt_.deadline_seconds) {
        set_fault(now, FaultCode::kDeadlineExceeded,
                  "run deadline of " + std::to_string(opt_.deadline_seconds) +
                      "s fired before the window closed");
        cv_.notify_all();
        break;
      }
      Admitted a;
      double next_time = kInf;
      if (try_admit(now, a, next_time)) {
        lock.unlock();
        byte_work(a);
        lock.lock();
        complete(a, now_fn());
        cv_.notify_all();
        continue;
      }
      if (now > last_progress_ + watchdog) {
        set_fault(now, FaultCode::kWatchdogStall,
                  "watchdog: no progress for " + std::to_string(watchdog) +
                      "s");
        cv_.notify_all();
        break;
      }
      double wake = std::min(next_time, last_progress_ + watchdog + 1e-3);
      if (opt_.deadline_seconds > 0) {
        wake = std::min(wake, opt_.deadline_seconds + 1e-3);
      }
      cv_.wait_for(lock, std::chrono::duration<double>(
                             std::max(1e-5, wake - now_fn())));
    }
    cv_.notify_all();
  }

  // ---- reporting ---------------------------------------------------------

  void fill_report(ExecReport& r) {
    r.workers = threaded_ ? workers_used_ : 1;
    r.fault = fault_;
    r.oneport_violations = violations_;
    r.delivery_errors = delivery_errors_;
    r.faults_injected = faults_.injected();
    r.chunks_lost = chunks_lost_;
    r.retransmits = retransmits_;
    r.total_operations = ops1_;
    r.delivered_messages.resize(p_.num_types);
    for (std::size_t k = 0; k < p_.num_types; ++k) {
      r.delivered_messages[k] =
          static_cast<std::uint64_t>(delivered_[k].floor().to_int64());
    }
    r.total_seconds = t1_;
    r.warmup_seconds = t0_;
    if (!t1_stamped_) {
      if (r.fault.ok()) {
        r.fault.code = FaultCode::kIncompleteWindow;
        r.fault.message = "execution ended before the window";
      }
      return;
    }
    r.operations = ops1_ - ops0_;
    r.elapsed_seconds = t1_ - t0_;
    r.payload_bytes = r.operations * p_.op_payload_bytes;
    const double certified_ops =
        p_.throughput.to_double() / p_.seconds_per_unit;
    r.certified_ops_per_sec = certified_ops;
    r.certified_bytes_per_sec =
        certified_ops * static_cast<double>(p_.op_payload_bytes);
    if (r.elapsed_seconds > 0) {
      r.achieved_ops_per_sec =
          static_cast<double>(r.operations) / r.elapsed_seconds;
      r.achieved_bytes_per_sec =
          static_cast<double>(r.payload_bytes) / r.elapsed_seconds;
      r.efficiency = r.achieved_ops_per_sec / certified_ops;
    }
    r.edges.resize(p_.platform->num_edges());
    for (graph::EdgeId e = 0; e < p_.platform->num_edges(); ++e) {
      EdgeTraffic& t = r.edges[e];
      t.edge = e;
      t.wire_bytes = edge_bytes_t1_[e] - edge_bytes_t0_[e];
      t.busy_seconds = edge_busy_t1_[e] - edge_busy_t0_[e];
      t.modeled_bytes_per_sec = p_.modeled_rate[e];
      t.effective_bytes_per_sec =
          t.busy_seconds > 0
              ? static_cast<double>(t.wire_bytes) / t.busy_seconds
              : 0.0;
      r.wire_bytes += t.wire_bytes;
    }
    r.ports.resize(p_.num_nodes());
    const std::size_t n = p_.num_nodes();
    for (graph::NodeId u = 0; u < n; ++u) {
      if (r.elapsed_seconds <= 0) break;
      r.ports[u].out = port_busy_t1_[u] / r.elapsed_seconds;
      r.ports[u].in = port_busy_t1_[n + u] / r.elapsed_seconds;
      r.ports[u].cpu = port_busy_t1_[2 * n + u] / r.elapsed_seconds;
    }
  }

  const ExecProgram& p_;
  ExecOptions opt_;
  bool threaded_;
  bool verify_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ExecFault fault_;
  FaultRuntime faults_;
  std::uint64_t chunks_lost_ = 0;
  std::uint64_t retransmits_ = 0;
  double last_progress_ = 0.0;
  std::size_t workers_used_ = 1;

  std::vector<std::vector<Rational>> avail_;
  std::vector<Rational> delivered_;
  std::vector<std::vector<char>> forwards_;
  std::vector<BoundedChannel> channels_;
  std::vector<std::size_t> reserved_;
  std::vector<TokenBucket> buckets_;
  std::vector<PortRt> out_, in_, cpu_;

  std::vector<std::uint64_t> next_id_;
  std::vector<std::vector<std::deque<std::pair<std::uint64_t, std::uint64_t>>>>
      idq_;
  std::vector<std::vector<bool>> marks_;

  std::vector<std::uint64_t> edge_bytes_, edge_bytes_t0_, edge_bytes_t1_;
  std::vector<double> edge_busy_, edge_busy_t0_, edge_busy_t1_;
  std::vector<double> port_busy_t1_;

  std::uint64_t warmup_ops_ = 0, total_ops_ = 0;
  std::uint64_t ops_done_ = 0, ops0_ = 0, ops1_ = 0;
  bool t0_stamped_ = false, t1_stamped_ = false;
  double t0_ = 0.0, t1_ = 0.0;
  std::size_t violations_ = 0, delivery_errors_ = 0;

  // Tracing (init_trace): one lane per (node, port kind).
  bool tracing_ = false;
  std::uint64_t trace_offset_ = 0;
  std::vector<std::uint32_t> out_lane_, in_lane_, cpu_lane_;
};

}  // namespace

ExecReport run_threaded(const ExecProgram& program,
                        const ExecOptions& options) {
  Engine engine(program, options, /*threaded=*/true);
  return engine.run();
}

ExecReport run_event(const ExecProgram& program, const ExecOptions& options) {
  Engine engine(program, options, /*threaded=*/false);
  return engine.run();
}

}  // namespace ssco::exec
