#pragma once
// Shared measurement surface of the execution data plane.
//
// Both executors — the threaded one (exec/threaded_executor.h) that moves
// real bytes through real channels, and the discrete-event one
// (sim/event_exec.h) that advances a virtual clock over the same compiled
// program — fill the same ExecReport, so "achieved / LP-certified
// efficiency" means the same thing regardless of how the plan was run.
//
// All rates are in wall seconds (virtual seconds for the event executor)
// and are measured over the steady window only: the first
// ExecOptions::warmup_periods worth of operations are excluded, because the
// paper's throughput claim is about the steady state, not the pipeline-fill
// ramp (Sec. 3.4 initialization argument).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/faults.h"
#include "graph/digraph.h"
#include "obs/metrics.h"
#include "platform/delta.h"
#include "platform/platform.h"

namespace ssco::exec {

/// Per-edge traffic observed during the steady measurement window.
struct EdgeTraffic {
  graph::EdgeId edge = graph::kInvalidId;
  /// Wire bytes moved across the edge inside the window.
  std::uint64_t wire_bytes = 0;
  /// Link busy time inside the window (token time at the ACTUAL link rate,
  /// so injected drift shows up here, not wall-clock scheduling jitter).
  double busy_seconds = 0.0;
  /// Modeled capacity: bytes/sec at the platform's edge cost.
  double modeled_bytes_per_sec = 0.0;
  /// wire_bytes / busy_seconds — the rate the link actually sustained.
  double effective_bytes_per_sec = 0.0;
};

/// Utilization of one node's ports over the measurement window.
struct PortUtilization {
  double out = 0.0;  // send port busy fraction
  double in = 0.0;   // receive port busy fraction
  double cpu = 0.0;  // compute busy fraction (reduce only)
};

struct ExecReport {
  /// True when produced by the discrete-event executor (virtual clock).
  bool simulated = false;
  std::size_t workers = 0;

  // ---- steady measurement window ----
  double elapsed_seconds = 0.0;     // window wall (or virtual) time
  std::uint64_t operations = 0;     // collective ops completed in the window
  std::uint64_t payload_bytes = 0;  // application payload moved per those ops
  std::uint64_t wire_bytes = 0;     // total link traffic in the window

  double achieved_ops_per_sec = 0.0;
  double achieved_bytes_per_sec = 0.0;   // payload_bytes / elapsed
  double certified_ops_per_sec = 0.0;    // LP bound TP / seconds_per_unit
  double certified_bytes_per_sec = 0.0;  // certified ops * payload per op
  /// achieved_ops_per_sec / certified_ops_per_sec — the headline SLO.
  double efficiency = 0.0;

  // ---- whole-run accounting ----
  std::uint64_t total_operations = 0;  // warmup + window
  double total_seconds = 0.0;
  double warmup_seconds = 0.0;

  /// One-port admission violations observed online (occupancy counters at
  /// every port); always 0 unless the engine itself is broken, which is the
  /// point of counting.
  std::size_t oneport_violations = 0;
  /// Exactly-once delivery errors (duplicate / missing message identity;
  /// only populated when verification was enabled and applicable).
  std::size_t delivery_errors = 0;
  /// Whole messages of each type (one type per commodity for scatter) that
  /// reached the type's sink over the whole run, indexed by type; 0 for
  /// types without a sink. A scatter operation completes only when every
  /// commodity's message has arrived, so total_operations never exceeds
  /// any commodity's entry.
  std::vector<std::uint64_t> delivered_messages;

  // ---- fault accounting (whole run, not just the window) ----
  /// Discrete fault events injected by ExecOptions::faults: every lost
  /// chunk plus each timed collapse/slowdown/blackout/jitter spec that bit.
  std::uint64_t faults_injected = 0;
  /// Chunks lost on the wire (each burns its wire time and tokens).
  std::uint64_t chunks_lost = 0;
  /// Extra wire crossings spent re-sending lost chunks.
  std::uint64_t retransmits = 0;

  std::vector<EdgeTraffic> edges;       // indexed by EdgeId
  std::vector<PortUtilization> ports;   // indexed by NodeId

  /// Typed fatal fault: `fault.ok()` on a clean run, otherwise the first
  /// fatal condition (static one-port failure, watchdog stall, deadline,
  /// retransmit limit, ...) with its code, location and engine time.
  ExecFault fault;

  [[nodiscard]] bool ok() const {
    return fault.ok() && oneport_violations == 0 && delivery_errors == 0;
  }

  /// The report as registry entries (exec_* counters/gauges, including
  /// min/p50/p90/p99/max summaries of the per-edge utilizations and
  /// effective rates via obs::summarize). to_string() renders its head
  /// table from exactly this snapshot, so the table and any machine
  /// exposition of the same run cannot drift apart.
  [[nodiscard]] obs::Snapshot snapshot() const;

  /// io/report tables: headline rates + per-edge traffic, values read back
  /// from snapshot().
  [[nodiscard]] std::string to_string(
      const platform::Platform& platform) const;
};

/// Compares each edge's effective rate against its modeled capacity and
/// returns cost changes for every edge that drifted relatively more than
/// `threshold` (e.g. 0.15 = 15%), skipping edges that moved fewer than
/// `min_bytes` (too little traffic to trust the estimate). The new cost is
/// old_cost * modeled/effective quantized to a denominator-4096 rational, so
/// the corrected platform stays exactly representable and warm-start
/// friendly. Empty delta = no actionable drift.
[[nodiscard]] platform::PlatformDelta infer_cost_drift(
    const platform::Platform& platform, const ExecReport& report,
    double threshold, std::uint64_t min_bytes = 1);

}  // namespace ssco::exec
