#include "service/plan_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "exec/threaded_executor.h"
#include "lp/parallel.h"
#include "obs/trace.h"
#include "sim/event_exec.h"

namespace ssco::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Instant marker on the trace timeline (dedup, cache-hit class, ...).
void trace_event(const char* name) {
  if (obs::Trace::enabled()) {
    obs::Trace::record(name, "service", obs::Trace::now_ns(), 0);
  }
}

}  // namespace

PlanService::PlanService(PlanServiceOptions options)
    : options_(options),
      cache_(options.num_shards, options.shard_capacity,
             options.cache_ttl_ms),
      submitted_(registry_.counter("service_submitted", "requests received")),
      accepted_(registry_.counter("service_accepted",
                                  "requests past admission")),
      shed_(registry_.counter("service_shed",
                              "requests rejected by admission control")),
      deadline_misses_(registry_.counter("service_deadline_misses",
                                         "deadlines fired while queued")),
      degraded_served_(registry_.counter("service_degraded_served",
                                         "stale/degraded plans served")),
      deduplicated_(registry_.counter("service_deduplicated",
                                      "attached to an in-flight solve")),
      exact_hits_(registry_.counter("service_exact_hits",
                                    "answered from cache")),
      warm_hits_(registry_.counter("service_warm_hits",
                                   "solved from a cached basis")),
      cold_solves_(registry_.counter("service_cold_solves",
                                     "solved from scratch")),
      failed_(registry_.counter("service_failed", "solves that threw")),
      cache_lookups_(registry_.counter("cache_lookups",
                                       "exact-cache probes")),
      cache_hits_(registry_.counter("cache_hits", "exact-cache probe hits")),
      cache_misses_(registry_.counter("cache_misses",
                                      "exact-cache probe misses")),
      cache_invalidations_(registry_.counter(
          "service_cache_invalidations", "drift-invalidated cache entries")),
      executions_(registry_.counter("service_executions",
                                    "plans run on the data plane")),
      drift_resolves_(registry_.counter("service_drift_resolves",
                                        "drift-triggered warm re-solves")),
      exec_oneport_violations_(registry_.counter(
          "exec_oneport_violations", "one-port overlaps observed")),
      exec_delivery_errors_(registry_.counter("exec_delivery_errors",
                                              "payload delivery errors")),
      exec_faults_injected_(registry_.counter("exec_faults_injected",
                                              "injected fault events")),
      exec_retransmits_(registry_.counter("exec_retransmits",
                                          "lost-chunk retransmissions")),
      last_efficiency_(registry_.gauge("exec_last_efficiency",
                                       "achieved/certified, last run")),
      last_achieved_bytes_per_sec_(
          registry_.gauge("exec_last_achieved_bytes_per_sec")),
      last_certified_bytes_per_sec_(
          registry_.gauge("exec_last_certified_bytes_per_sec")),
      latency_hist_(registry_.histogram("service_latency_ms",
                                        "submit-to-fulfillment latency")),
      latency_(std::max<std::size_t>(1, options.latency_reservoir)) {
  std::size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max(2u, std::thread::hardware_concurrency());
  }
  solve_budget_ =
      options_.solve_threads != 0
          ? options_.solve_threads
          : std::max<std::size_t>(1, lp::hardware_threads() / workers);
  // Cold-lane cap: reserve one worker for warm re-solves unless the pool
  // has a single worker (then the cap would deadlock the cold lane).
  max_cold_ = options_.max_cold_workers != 0
                  ? options_.max_cold_workers
                  : (workers > 1 ? workers - 1 : 1);
  max_cold_ = std::min(max_cold_, workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PlanService::~PlanService() { shutdown(); }

void PlanService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

std::future<PlanResult> PlanService::submit(PlanRequest request) {
  OBS_SPAN_CAT("submit", "service");
  const auto start = std::chrono::steady_clock::now();
  // Honor the shutdown contract BEFORE any fast path or counter: the
  // exact-hit path used to answer from cache after stopping_ was set, so a
  // submit racing the destructor could sneak past intake. The authoritative
  // re-check below (under the same lock as queue intake) closes the window
  // between this check and enqueue.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      throw ServiceError(ServiceErrorCode::kShutdown,
                         "PlanService::submit after shutdown");
    }
  }
  const RequestDigest d = digest(request);

  // Exact-hit fast path: answered inline, no queue, no solve. The
  // submitted/accepted pair rides the same Batch as the lookup outcome so
  // BOTH invariant families (accepted + shed == submitted, hits + misses
  // == lookups) hold in every snapshot.
  auto verify_exact = [&request](const PlanPayload& p) {
    return same_request(request, p.request);
  };
  if (auto payload =
          cache_.find_exact(d.key, d.fingerprint.structure, verify_exact)) {
    {
      obs::Registry::Batch batch(registry_);
      submitted_.add(1);
      accepted_.add(1);
      cache_lookups_.add(1);
      cache_hits_.add(1);
      exact_hits_.add(1);
    }
    trace_event("exact_hit");
    PlanResult result;
    result.payload = std::move(payload);
    result.source = PlanResult::Source::kExactHit;
    result.fingerprint = d.fingerprint;
    result.latency_ms = ms_since(start);
    record_latency(result.latency_ms);
    std::promise<PlanResult> ready;
    auto future = ready.get_future();
    ready.set_value(std::move(result));
    return future;
  }
  {
    obs::Registry::Batch batch(registry_);
    cache_lookups_.add(1);
    cache_misses_.add(1);
  }

  // Lane classification (outside the queue lock; shard lock only): a
  // cached same-structure basis makes this a cheap incremental re-solve.
  // has_warm is a read-only probe, so the classification never distorts
  // the warm-hit accounting.
  const bool warm_lane =
      options_.enable_warm_start &&
      cache_.has_warm(d.key.op, d.fingerprint.structure);

  std::lock_guard<std::mutex> lock(queue_mu_);
  if (stopping_) {
    throw ServiceError(ServiceErrorCode::kShutdown,
                       "PlanService::submit after shutdown");
  }
  // Single-flight: attach to an identical request already being solved.
  // The follower's waiter carries its OWN submit stamp — its reported
  // latency is the time IT waited, not the leader's. Dedup bypasses
  // admission: attaching adds no queue depth and no solve work.
  if (auto it = inflight_.find(d.key);
      it != inflight_.end() && same_request(request, it->second->request)) {
    {
      obs::Registry::Batch batch(registry_);
      submitted_.add(1);
      accepted_.add(1);
      deduplicated_.add(1);
    }
    trace_event("dedup");
    it->second->waiters.push_back(Waiter{{}, start});
    return it->second->waiters.back().promise.get_future();
  }
  // Admission control: shed typed instead of queueing work the service
  // cannot finish in budget. Depth gate first (cheap, absolute), then the
  // per-lane ETA gate (backlog x observed solve time).
  const std::size_t depth = warm_queue_.size() + cold_queue_.size();
  const char* shed_why = nullptr;
  if (options_.max_queue_depth > 0 && depth >= options_.max_queue_depth) {
    shed_why = "queue depth at max_queue_depth";
  } else if (options_.admission_budget_ms > 0.0) {
    const double eta = warm_lane ? warm_eta_ms_ : cold_eta_ms_;
    const std::size_t lane_depth =
        warm_lane ? warm_queue_.size() : cold_queue_.size();
    if (eta > 0.0 && static_cast<double>(lane_depth + 1) * eta >
                         options_.admission_budget_ms) {
      shed_why = "lane backlog x solve ETA over admission_budget_ms";
    }
  }
  if (shed_why != nullptr) {
    {
      obs::Registry::Batch batch(registry_);
      submitted_.add(1);
      shed_.add(1);
    }
    trace_event("shed");
    throw ServiceError(ServiceErrorCode::kOverloaded,
                       std::string("PlanService overloaded: ") + shed_why);
  }
  auto job = std::make_shared<Inflight>();
  job->key = d.key;
  job->fingerprint = d.fingerprint;
  job->cold = !warm_lane;
  job->deadline_ms = request.deadline_ms > 0.0 ? request.deadline_ms
                                               : options_.default_deadline_ms;
  job->request = std::move(request);
  job->waiters.push_back(Waiter{{}, start});
  auto future = job->waiters.back().promise.get_future();
  inflight_[d.key] = job;
  (warm_lane ? warm_queue_ : cold_queue_).push_back(std::move(job));
  {
    obs::Registry::Batch batch(registry_);
    submitted_.add(1);
    accepted_.add(1);
  }
  max_queue_depth_ = std::max(max_queue_depth_, depth + 1);
  queue_cv_.notify_one();
  return future;
}

void PlanService::worker_loop() {
  for (;;) {
    std::shared_ptr<Inflight> job;
    bool cold_lane = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      // Warm work is always runnable; cold work only while a warm-reserved
      // slot remains free (shutdown bypasses the cap to drain fast).
      queue_cv_.wait(lock, [this] {
        return stopping_ || !warm_queue_.empty() ||
               (!cold_queue_.empty() && active_cold_ < max_cold_);
      });
      if (!warm_queue_.empty()) {
        job = std::move(warm_queue_.front());
        warm_queue_.pop_front();
      } else if (!cold_queue_.empty() &&
                 (stopping_ || active_cold_ < max_cold_)) {
        job = std::move(cold_queue_.front());
        cold_queue_.pop_front();
        cold_lane = true;
        ++active_cold_;
      } else if (stopping_) {
        return;
      } else {
        continue;  // woken for a cold job the cap forbids us to take
      }
      ++active_jobs_;
    }
    process(job, cold_lane);
    bool wake_cold = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --active_jobs_;
      if (cold_lane) {
        --active_cold_;
        // Releasing a cold slot can make a parked worker's predicate true;
        // cv waits are on queue_cv_, so hand the slot over explicitly.
        wake_cold = !cold_queue_.empty();
      }
      if (warm_queue_.empty() && cold_queue_.empty() && active_jobs_ == 0) {
        idle_cv_.notify_all();
      }
    }
    if (wake_cold) queue_cv_.notify_one();
  }
}

bool PlanService::degrade_or_fail(const std::shared_ptr<Inflight>& job) {
  // Serve-stale first: the freshest certified same-structure plan is a
  // valid (if no longer optimal) answer, and the client asked for bounded
  // latency, not a bounded optimality gap.
  std::shared_ptr<const PlanPayload> stale;
  if (options_.serve_stale) {
    stale = cache_.find_warm(job->key.op, job->fingerprint.structure,
                             [&job](const PlanPayload& p) {
                               return warm_compatible(job->request, p.request);
                             });
  }
  // Drop from inflight_ BEFORE answering so a racing identical submit
  // starts a fresh solve instead of attaching to an already-answered job.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (auto it = inflight_.find(job->key);
        it != inflight_.end() && it->second == job) {
      inflight_.erase(it);
    }
  }
  if (stale) {
    {
      obs::Registry::Batch batch(registry_);
      deadline_misses_.add(1);
      degraded_served_.add(job->waiters.size());
    }
    trace_event("degraded_serve");
    PlanResult result;
    result.payload = std::move(stale);
    result.source = PlanResult::Source::kStale;
    result.fingerprint = job->fingerprint;
    result.degraded = true;
    for (Waiter& waiter : job->waiters) {
      result.latency_ms = ms_since(waiter.submitted);
      record_latency(result.latency_ms);
      waiter.promise.set_value(result);
    }
    job->waiters.clear();
    return true;  // keep solving: the fresh plan warms the cache
  }
  {
    obs::Registry::Batch batch(registry_);
    deadline_misses_.add(1);
    failed_.add(1);
  }
  trace_event("deadline_fail");
  auto error = std::make_exception_ptr(
      ServiceError(ServiceErrorCode::kDeadlineExceeded,
                   "deadline of " + std::to_string(job->deadline_ms) +
                       " ms fired before the solve started"));
  for (Waiter& waiter : job->waiters) waiter.promise.set_exception(error);
  job->waiters.clear();
  return false;
}

void PlanService::process(const std::shared_ptr<Inflight>& job,
                          bool cold_lane) {
  auto drop_inflight = [&] {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (auto it = inflight_.find(job->key);
        it != inflight_.end() && it->second == job) {
      inflight_.erase(it);
    }
  };
  auto fulfill = [&](std::shared_ptr<const PlanPayload> payload,
                     PlanResult::Source source) {
    drop_inflight();
    PlanResult result;
    result.payload = std::move(payload);
    result.source = source;
    result.fingerprint = job->fingerprint;
    // One sample per waiter, each measured from that waiter's OWN submit
    // time: a follower that deduplicated onto this solve halfway through
    // waited half as long as the leader and reports exactly that.
    for (Waiter& waiter : job->waiters) {
      result.latency_ms = ms_since(waiter.submitted);
      record_latency(result.latency_ms);
      waiter.promise.set_value(result);
    }
  };

  // Queue-wait deadline, measured from the leader's submit stamp: if the
  // budget burned down before the solve even started, answer NOW —
  // degraded if a stale plan exists, typed kDeadlineExceeded otherwise.
  // The degraded case keeps solving below with zero waiters so the next
  // request finds a fresh plan (the solve time is sunk either way).
  if (job->deadline_ms > 0.0 && !job->waiters.empty() &&
      ms_since(job->waiters.front().submitted) > job->deadline_ms) {
    if (!degrade_or_fail(job)) return;
  }

  try {
    // Re-check the cache: a racing worker (or a submit that lost the
    // inflight-registration race) may have filled this key meanwhile.
    auto verify_exact = [&job](const PlanPayload& p) {
      return same_request(job->request, p.request);
    };
    if (auto payload =
            cache_.find_exact(job->key, job->fingerprint.structure,
                              verify_exact, /*count_miss=*/false)) {
      // count_miss=false only spares the SHARD's stats; the registry's
      // lookup family records every probe so its invariant stays strict.
      {
        obs::Registry::Batch batch(registry_);
        cache_lookups_.add(1);
        cache_hits_.add(1);
        exact_hits_.add(1);
      }
      trace_event("exact_hit");
      fulfill(std::move(payload), PlanResult::Source::kExactHit);
      return;
    }
    {
      obs::Registry::Batch batch(registry_);
      cache_lookups_.add(1);
      cache_misses_.add(1);
    }

    std::shared_ptr<const PlanPayload> warm_from;
    if (options_.enable_warm_start) {
      warm_from = cache_.find_warm(
          job->key.op, job->fingerprint.structure,
          [&job](const PlanPayload& p) {
            return warm_compatible(job->request, p.request);
          });
    }
    const std::uint64_t solve_t0 =
        obs::Trace::enabled() ? obs::Trace::now_ns() : 0;
    const auto solve_start = std::chrono::steady_clock::now();
    std::shared_ptr<PlanPayload> payload = solve(job->request, warm_from);
    const double solve_ms = ms_since(solve_start);
    const bool warm = warm_from != nullptr && payload->warm_started();
    if (obs::Trace::enabled()) {
      obs::Trace::record(warm ? "warm_solve" : "cold_solve", "service",
                         solve_t0, obs::Trace::now_ns() - solve_t0);
    }
    // Feed the lane the admission gate reads (the admission-time
    // classification, not the solver's warm/cold outcome — admission can
    // only ever see the former).
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      double& eta = cold_lane ? cold_eta_ms_ : warm_eta_ms_;
      eta = eta <= 0.0 ? solve_ms : 0.7 * eta + 0.3 * solve_ms;
    }
    (warm ? warm_hits_ : cold_solves_).add(1);
    cache_.insert(job->key, job->fingerprint.structure, payload);
    fulfill(std::move(payload), warm ? PlanResult::Source::kWarmHit
                                     : PlanResult::Source::kColdSolve);
  } catch (...) {
    failed_.add(1);
    drop_inflight();
    for (Waiter& waiter : job->waiters) {
      waiter.promise.set_exception(std::current_exception());
    }
  }
}

std::shared_ptr<PlanPayload> PlanService::solve(
    const PlanRequest& request,
    const std::shared_ptr<const PlanPayload>& warm_from) const {
  auto payload = std::make_shared<PlanPayload>();
  payload->op = request.operation();
  payload->request = request;
  // Clamp the request's intra-solve parallelism to this service's
  // per-request budget (a request's own SMALLER ask wins; 0 = all hardware
  // resolves to the budget). Tuning-only: the cache key ignores it and the
  // solve is bit-identical at any thread count.
  core::PlanOptions options = request.options;
  options.solver.threads = std::max<std::size_t>(
      1, std::min(lp::resolve_threads(options.solver.threads), solve_budget_));
  std::visit(
      [&](const auto& instance) {
        using T = std::decay_t<decltype(instance)>;
        if constexpr (std::is_same_v<T, platform::ReduceInstance>) {
          const core::ReducePlan* previous =
              warm_from && warm_from->reduce ? warm_from->reduce.get()
                                             : nullptr;
          payload->reduce = std::make_shared<core::ReducePlan>(
              core::optimize_reduce(instance, options, previous));
        } else {
          const core::FlowPlan* previous =
              warm_from && warm_from->flow ? warm_from->flow.get() : nullptr;
          if constexpr (std::is_same_v<T, platform::ScatterInstance>) {
            payload->flow = std::make_shared<core::FlowPlan>(
                core::optimize_scatter(instance, options, previous));
          } else {
            payload->flow = std::make_shared<core::FlowPlan>(
                core::optimize_gossip(instance, options, previous));
          }
        }
      },
      request.instance);
  return payload;
}

void PlanService::record_latency(double ms) {
  // One global reservoir lock is fine at this tier: the critical section is
  // a single vector write, and the exact-hit submit path it sits on is
  // dominated by the WL fingerprint digest (tens of microseconds), not by
  // this mutex. Revisit (striped reservoirs or 1-in-N sampling) only if a
  // profile ever shows hand-off here.
  latency_hist_.record(ms);
  std::lock_guard<std::mutex> lock(latency_mu_);
  latency_.record(ms);
}

void PlanService::drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [this] {
    return warm_queue_.empty() && cold_queue_.empty() && active_jobs_ == 0 &&
           inflight_.empty();
  });
}

obs::Snapshot PlanService::metrics_snapshot() const {
  // Refresh the point-in-time gauges, then snapshot. The snapshot itself
  // excludes every in-progress Batch, so the counter families are
  // internally consistent; gauges are merely freshest-known.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    registry_.gauge("service_queue_depth")
        .set(static_cast<double>(warm_queue_.size() + cold_queue_.size()));
    registry_.gauge("service_warm_queue_depth")
        .set(static_cast<double>(warm_queue_.size()));
    registry_.gauge("service_cold_queue_depth")
        .set(static_cast<double>(cold_queue_.size()));
    registry_.gauge("service_max_queue_depth")
        .set(static_cast<double>(max_queue_depth_));
    registry_.gauge("service_warm_eta_ms").set(warm_eta_ms_);
    registry_.gauge("service_cold_eta_ms").set(cold_eta_ms_);
  }
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    const obs::PercentileSummary s = obs::summarize(latency_.samples());
    registry_.counter("service_latency_samples").set(s.count);
    registry_.gauge("service_latency_p50_ms").set(s.p50);
    registry_.gauge("service_latency_p90_ms").set(s.p90);
    registry_.gauge("service_latency_p99_ms").set(s.p99);
  }
  const std::size_t served =
      exact_hits_.value() + warm_hits_.value() + cold_solves_.value();
  registry_.gauge("service_hit_rate")
      .set(served == 0 ? 0.0
                       : static_cast<double>(exact_hits_.value() +
                                             warm_hits_.value()) /
                             static_cast<double>(served));
  const lp::PoolStats pool = lp::ThreadPool::shared().stats();
  registry_.gauge("pool_workers").set(static_cast<double>(pool.workers));
  registry_.gauge("pool_jobs").set(static_cast<double>(pool.jobs));
  registry_.gauge("pool_shards").set(static_cast<double>(pool.shards));
  registry_.gauge("pool_inline_shards")
      .set(static_cast<double>(pool.inline_shards));
  registry_.gauge("pool_busy_ms")
      .set(static_cast<double>(pool.busy_ns) / 1e6);
  return registry_.snapshot();
}

ServiceMetrics PlanService::metrics() const {
  // Filled from the SAME snapshot metrics_snapshot() exposes: one source
  // of truth for the struct, the tables and the Prometheus/JSON views.
  const obs::Snapshot snap = metrics_snapshot();
  auto count = [&](std::string_view name) {
    return static_cast<std::size_t>(snap.value(name));
  };
  ServiceMetrics m;
  m.shards = cache_.shard_metrics();
  m.submitted = count("service_submitted");
  m.accepted = count("service_accepted");
  m.shed = count("service_shed");
  m.deadline_misses = count("service_deadline_misses");
  m.degraded_served = count("service_degraded_served");
  m.deduplicated = count("service_deduplicated");
  m.exact_hits = count("service_exact_hits");
  m.warm_hits = count("service_warm_hits");
  m.cold_solves = count("service_cold_solves");
  m.failed = count("service_failed");
  m.queue_depth = count("service_queue_depth");
  m.max_queue_depth = count("service_max_queue_depth");
  m.latency_samples = count("service_latency_samples");
  m.p50_ms = snap.value("service_latency_p50_ms");
  m.p90_ms = snap.value("service_latency_p90_ms");
  m.p99_ms = snap.value("service_latency_p99_ms");
  m.executions = count("service_executions");
  m.drift_resolves = count("service_drift_resolves");
  m.exec_oneport_violations = count("exec_oneport_violations");
  m.exec_delivery_errors = count("exec_delivery_errors");
  m.exec_faults_injected = count("exec_faults_injected");
  m.exec_retransmits = count("exec_retransmits");
  m.last_efficiency = snap.value("exec_last_efficiency");
  m.last_achieved_bytes_per_sec =
      snap.value("exec_last_achieved_bytes_per_sec");
  m.last_certified_bytes_per_sec =
      snap.value("exec_last_certified_bytes_per_sec");
  return m;
}

PlanService::ExecuteResult PlanService::execute(const PlanRequest& request,
                                                const ExecuteOptions& options) {
  OBS_SPAN_CAT("execute", "service");
  ExecuteResult out;
  out.plan = submit(request).get();

  const platform::Platform& pf = request.platform();
  const PlanPayload& payload = *out.plan.payload;
  if (payload.flow) {
    out.report = options.simulate
                     ? sim::simulate_flow_execution(pf, *payload.flow,
                                                    options.exec)
                     : exec::execute_flow(pf, *payload.flow, options.exec);
  } else {
    const auto& inst = std::get<platform::ReduceInstance>(request.instance);
    out.report = options.simulate
                     ? sim::simulate_reduce_execution(inst, *payload.reduce,
                                                      options.exec)
                     : exec::execute_reduce(inst, *payload.reduce,
                                            options.exec);
  }

  // Observe: feed measured per-edge rates back as a platform correction.
  if (out.report.fault.ok()) {
    out.drift = exec::infer_cost_drift(pf, out.report,
                                       options.drift_threshold);
    if (!out.drift.empty()) {
      OBS_SPAN_CAT("drift_resolve", "service");
      // The cached plan was certified against rates the platform no longer
      // delivers — age it out so exact hits stop serving it.
      const RequestDigest d = digest(request);
      if (cache_.invalidate(d.key, d.fingerprint.structure)) {
        cache_invalidations_.add(1);
      }
      auto applied = platform::apply_delta(pf, out.drift);
      out.drifted_request = request;
      std::visit(
          [&](auto& instance) { instance.platform = applied.platform; },
          out.drifted_request.instance);
      // Same structure, drifted costs: the cache's warm path re-solves this
      // incrementally from the executed plan's basis.
      out.updated = submit(out.drifted_request).get();
      out.resolved = true;
    }
  } else if (!out.report.fault.ok()) {
    // Typed execution fault: the run is DEGRADED, not silently failed.
    // The plan itself is still the model's best certified answer (the
    // fault was injected/transient, not a cost drift), so it stays cached;
    // a fire-and-forget re-submit re-warms the entry's LRU position so the
    // next caller is answered inline even after pressure evictions.
    out.degraded = true;
    trace_event("exec_degraded");
    try {
      (void)submit(request);  // future discarded: background refresh
    } catch (const ServiceError&) {
      // Shedding/shutdown while degraded is itself a typed, reported
      // outcome — never an unreported error.
    }
  }

  {
    obs::Registry::Batch batch(registry_);
    executions_.add(1);
    if (out.resolved) drift_resolves_.add(1);
    if (out.degraded) degraded_served_.add(1);
    exec_oneport_violations_.add(out.report.oneport_violations);
    exec_delivery_errors_.add(out.report.delivery_errors);
    exec_faults_injected_.add(out.report.faults_injected);
    exec_retransmits_.add(out.report.retransmits);
    last_efficiency_.set(out.report.efficiency);
    last_achieved_bytes_per_sec_.set(out.report.achieved_bytes_per_sec);
    last_certified_bytes_per_sec_.set(out.report.certified_bytes_per_sec);
  }
  return out;
}

}  // namespace ssco::service
