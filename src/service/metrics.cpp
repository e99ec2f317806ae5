#include "service/metrics.h"

#include <sstream>

#include "io/report.h"
#include "io/table.h"

namespace ssco::service {

namespace {

/// Counter/gauge value rendered for the human table: counters as integers,
/// gauges through the caller-supplied formatter.
std::string as_count(const obs::Snapshot& snap, std::string_view name) {
  return std::to_string(
      static_cast<std::uint64_t>(snap.value(name)));
}

std::string as_millis(const obs::Snapshot& snap, std::string_view name) {
  return io::millis(static_cast<std::uint64_t>(snap.value(name)));
}

}  // namespace

obs::Snapshot snapshot_of(const ServiceMetrics& metrics) {
  obs::Registry reg;
  reg.counter("service_submitted").set(metrics.submitted);
  reg.counter("service_accepted").set(metrics.accepted);
  reg.counter("service_shed").set(metrics.shed);
  reg.counter("service_deadline_misses").set(metrics.deadline_misses);
  reg.counter("service_degraded_served").set(metrics.degraded_served);
  reg.counter("service_deduplicated").set(metrics.deduplicated);
  reg.counter("service_exact_hits").set(metrics.exact_hits);
  reg.counter("service_warm_hits").set(metrics.warm_hits);
  reg.counter("service_cold_solves").set(metrics.cold_solves);
  reg.counter("service_failed").set(metrics.failed);
  reg.gauge("service_hit_rate").set(metrics.hit_rate());
  reg.gauge("service_queue_depth").set(static_cast<double>(metrics.queue_depth));
  reg.gauge("service_max_queue_depth")
      .set(static_cast<double>(metrics.max_queue_depth));
  reg.counter("service_latency_samples").set(metrics.latency_samples);
  reg.gauge("service_latency_p50_ms").set(metrics.p50_ms);
  reg.gauge("service_latency_p90_ms").set(metrics.p90_ms);
  reg.gauge("service_latency_p99_ms").set(metrics.p99_ms);
  reg.counter("service_executions").set(metrics.executions);
  reg.counter("service_drift_resolves").set(metrics.drift_resolves);
  reg.counter("exec_oneport_violations").set(metrics.exec_oneport_violations);
  reg.counter("exec_delivery_errors").set(metrics.exec_delivery_errors);
  reg.counter("exec_faults_injected").set(metrics.exec_faults_injected);
  reg.counter("exec_retransmits").set(metrics.exec_retransmits);
  reg.gauge("exec_last_efficiency").set(metrics.last_efficiency);
  reg.gauge("exec_last_achieved_bytes_per_sec")
      .set(metrics.last_achieved_bytes_per_sec);
  reg.gauge("exec_last_certified_bytes_per_sec")
      .set(metrics.last_certified_bytes_per_sec);
  std::size_t lookups = 0, hits = 0, misses = 0, evictions = 0;
  std::size_t expirations = 0, invalidations = 0;
  for (const CacheShardMetrics& s : metrics.shards) {
    hits += s.exact_hits;
    misses += s.misses;
    evictions += s.evictions;
    expirations += s.expirations;
    invalidations += s.invalidations;
  }
  lookups = hits + misses;
  reg.counter("cache_lookups").set(lookups);
  reg.counter("cache_hits").set(hits);
  reg.counter("cache_misses").set(misses);
  reg.counter("cache_evictions").set(evictions);
  reg.counter("cache_expirations").set(expirations);
  reg.counter("cache_invalidations").set(invalidations);
  return reg.snapshot();
}

obs::Snapshot snapshot_of(const lp::SolverStats& stats) {
  obs::Registry reg;
  reg.counter("solver_solves").set(stats.solves);
  reg.counter("solver_float_pivots").set(stats.float_pivots);
  reg.counter("solver_exact_pivots").set(stats.exact_pivots);
  reg.counter("solver_warm_attempts").set(stats.warm_attempts);
  reg.counter("solver_warm_solves").set(stats.warm_solves);
  reg.counter("solver_exact_fallbacks").set(stats.exact_fallbacks);
  reg.counter("solver_colgen_solves").set(stats.colgen_solves);
  reg.counter("solver_colgen_rounds").set(stats.colgen_rounds);
  reg.counter("solver_colgen_columns_generated")
      .set(stats.colgen_columns_generated);
  reg.counter("solver_ftran_ns").set(stats.ftran_ns);
  reg.counter("solver_btran_ns").set(stats.btran_ns);
  reg.counter("solver_pricing_ns").set(stats.pricing_ns);
  reg.counter("solver_factor_ns").set(stats.factor_ns);
  reg.counter("solver_certify_ns").set(stats.certify_ns);
  reg.counter("solver_pricing_sweep_ns").set(stats.pricing_sweep_ns);
  return reg.snapshot();
}

std::string format_metrics(const ServiceMetrics& metrics) {
  // Render FROM the machine-readable snapshot: the table below and
  // metrics_snapshot()'s Prometheus/JSON expositions read the same entries
  // by the same names, so the formats cannot drift.
  const obs::Snapshot snap = snapshot_of(metrics);
  std::ostringstream os;
  os << io::banner("plan service");

  io::Table shards({"shard", "size", "cap", "exact", "warm", "miss", "evict"});
  for (std::size_t i = 0; i < metrics.shards.size(); ++i) {
    const CacheShardMetrics& s = metrics.shards[i];
    shards.add_row({std::to_string(i), std::to_string(s.size),
                    std::to_string(s.capacity), std::to_string(s.exact_hits),
                    std::to_string(s.warm_hits), std::to_string(s.misses),
                    std::to_string(s.evictions)});
  }
  os << shards.to_string() << "\n";

  io::Table totals({"metric", "value"});
  totals.add_row({"submitted", as_count(snap, "service_submitted")});
  totals.add_row({"accepted", as_count(snap, "service_accepted")});
  totals.add_row({"shed (overloaded)", as_count(snap, "service_shed")});
  totals.add_row(
      {"deadline misses", as_count(snap, "service_deadline_misses")});
  totals.add_row(
      {"degraded served", as_count(snap, "service_degraded_served")});
  totals.add_row({"deduplicated", as_count(snap, "service_deduplicated")});
  totals.add_row({"exact hits", as_count(snap, "service_exact_hits")});
  totals.add_row({"warm hits", as_count(snap, "service_warm_hits")});
  totals.add_row({"cold solves", as_count(snap, "service_cold_solves")});
  totals.add_row({"failed", as_count(snap, "service_failed")});
  totals.add_row({"hit rate", io::percent(snap.value("service_hit_rate"))});
  totals.add_row({"queue depth", as_count(snap, "service_queue_depth")});
  totals.add_row(
      {"max queue depth", as_count(snap, "service_max_queue_depth")});
  totals.add_row({"latency p50",
                  io::fixed(snap.value("service_latency_p50_ms"), 3) + " ms"});
  totals.add_row({"latency p90",
                  io::fixed(snap.value("service_latency_p90_ms"), 3) + " ms"});
  totals.add_row({"latency p99",
                  io::fixed(snap.value("service_latency_p99_ms"), 3) + " ms"});
  os << totals.to_string();

  if (snap.value("service_executions") > 0) {
    os << "\n";
    io::Table dataplane({"metric", "value"});
    dataplane.add_row({"executions", as_count(snap, "service_executions")});
    dataplane.add_row(
        {"drift re-solves", as_count(snap, "service_drift_resolves")});
    dataplane.add_row(
        {"one-port violations", as_count(snap, "exec_oneport_violations")});
    dataplane.add_row(
        {"delivery errors", as_count(snap, "exec_delivery_errors")});
    dataplane.add_row(
        {"faults injected", as_count(snap, "exec_faults_injected")});
    dataplane.add_row({"retransmits", as_count(snap, "exec_retransmits")});
    dataplane.add_row(
        {"last efficiency", io::percent(snap.value("exec_last_efficiency"))});
    dataplane.add_row(
        {"last achieved",
         io::fixed(snap.value("exec_last_achieved_bytes_per_sec") / 1e6, 2) +
             " MB/s"});
    dataplane.add_row(
        {"last certified",
         io::fixed(snap.value("exec_last_certified_bytes_per_sec") / 1e6, 2) +
             " MB/s"});
    os << dataplane.to_string();
  }
  return os.str();
}

std::string format_solver_stats(const lp::SolverStats& stats) {
  const obs::Snapshot snap = snapshot_of(stats);
  std::ostringstream os;
  os << io::banner("exact solver");
  io::Table table({"metric", "value"});
  table.add_row({"solves", as_count(snap, "solver_solves")});
  table.add_row({"float pivots", as_count(snap, "solver_float_pivots")});
  table.add_row({"exact pivots", as_count(snap, "solver_exact_pivots")});
  table.add_row({"warm attempts", as_count(snap, "solver_warm_attempts")});
  table.add_row({"warm solves", as_count(snap, "solver_warm_solves")});
  table.add_row({"exact fallbacks", as_count(snap, "solver_exact_fallbacks")});
  table.add_row({"colgen solves", as_count(snap, "solver_colgen_solves")});
  table.add_row({"colgen rounds", as_count(snap, "solver_colgen_rounds")});
  table.add_row({"colgen columns generated",
                 as_count(snap, "solver_colgen_columns_generated")});
  table.add_row({"ftran time", as_millis(snap, "solver_ftran_ns")});
  table.add_row({"btran time", as_millis(snap, "solver_btran_ns")});
  table.add_row({"pricing time", as_millis(snap, "solver_pricing_ns")});
  table.add_row({"factorization time", as_millis(snap, "solver_factor_ns")});
  table.add_row({"certify time", as_millis(snap, "solver_certify_ns")});
  table.add_row(
      {"pricing sweep time", as_millis(snap, "solver_pricing_sweep_ns")});
  os << table.to_string();
  return os.str();
}

}  // namespace ssco::service
