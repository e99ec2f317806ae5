// ssco end-to-end benchmark: cold-plan, serve-drift and exec-loop.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--solver-threads <k>]
//
// Times the program only from outside, through the public entry points of
// core, lp, platform, service, exec and sim. Every run checks the returned
// plans and executions against figures computed here (checks.h) and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; --trace 1 re-runs the workload with spans around the
// layer calls and prints the per-layer metrics instead. README.md explains
// the workloads, metrics and how to read the traced table.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/steady_state.h"
#include "exec/threaded_executor.h"
#include "instances.h"
#include "obs/metrics.h"
#include "platform/delta.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "sim/event_exec.h"
#include "trace.h"

namespace perfbench {
namespace {

using ssco::platform::ReduceInstance;
using ssco::platform::ScatterInstance;
using ssco::service::PlanRequest;
using ssco::service::PlanResult;

// ------------------------------------------------------------- settings --

// cold-plan: seeded scatter platforms (their solve time barely depends on
// the draw) and a fixed list of reduce structures. Reduce solve time swings
// 600x between random n=64 draws (24 ms .. 15 s), so the list is pinned to
// five structures of 0.3-0.8 s; the seed renames their nodes and orders
// the solves. Node names do not change the LP's pivots.
constexpr std::size_t kColdScatterN = 128;
constexpr std::size_t kColdScatterTargets = 16;
constexpr std::size_t kColdScatterCount = 8;
constexpr std::size_t kColdReduceN = 64;
constexpr std::size_t kColdReduceParticipants = 8;
constexpr std::uint64_t kColdReduceStructures[] = {4, 10, 12, 22, 26};

// serve-drift: two clients, each owning one scatter and one reduce
// platform. A client round is one drift step and kScatterRepeats exact
// repeats on its scatter platform, then the same on its reduce platform.
// Each drift step re-draws kDriftLinks link costs of the client's base
// platform, so the warm re-solves come from one stationary distribution
// instead of a random walk whose cost grows over the run; the changes are
// mild (10-25%), like a link that slowed down, because arbitrary new costs
// gave a heavy tail of warm re-solves that dominated the run. The structures
// are pinned: across seeded draws the warm re-solve cost, and with it the
// request rate, moved by 1.6x; the seed renames the nodes and draws the
// drift steps.
constexpr std::size_t kServeClients = 2;
constexpr std::uint64_t kServeScatterStructures[] = {1, 2};
constexpr std::uint64_t kServeReduceStructures[] = {1, 2};
constexpr std::size_t kServeScatterN = 128;
constexpr std::size_t kServeScatterTargets = 16;
constexpr std::size_t kServeReduceN = 32;
constexpr std::size_t kServeReduceParticipants = 4;
constexpr std::size_t kScatterRepeats = 99;
constexpr std::size_t kReduceRepeats = 19;
constexpr std::size_t kDriftLinks = 3;

// exec-loop: small plans on the event backend, with dyadic link costs so
// the drift corrections (quantized to 1/4096) stay exact. The structures
// and the per-plan rate-scale pattern are pinned: on random draws one
// execute() round costs 5 ms .. 16 s, and some draws trip event-backend
// faults (CHANGES.md, FOUND). The seed renames the nodes and orders the
// rounds.
constexpr std::size_t kExecScatterN[] = {16, 20, 24};
constexpr std::uint64_t kExecScatterStructures[] = {11, 4, 4};
constexpr std::size_t kExecReduceN = 16;
constexpr std::uint64_t kExecReduceStructures[] = {20, 14};
constexpr std::size_t kExecReduceCount = std::size(kExecReduceStructures);
constexpr std::uint64_t kExecScalePattern = 7;
constexpr std::size_t kExecReduceParticipants = 4;
constexpr double kDriftThreshold = 0.15;

constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------- stats --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Mean over inputs of each input's median latency: robust to host spikes
/// (median) and to the very different costs of different inputs (each
/// input weighs the same, whatever its position in the sorted mixture).
double mean_of_medians(const std::vector<std::vector<double>>& per_input) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& v : per_input) {
    if (v.empty()) continue;
    sum += median(v);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

// -------------------------------------------------------------- outcome --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> causes;
  bool correct = true;
  std::vector<Metric> metrics;

  void count(const Failures& f) {
    ++attempted;
    if (f.empty()) return;
    ++failed;
    for (const auto& c : f) ++causes[c];
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string number(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_result(const Outcome& o) {
  std::fprintf(stderr, "attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(o.attempted),
               static_cast<unsigned long long>(o.failed));
  for (const auto& [cause, n] : o.causes) {
    std::fprintf(stderr, "  failed check %-28s %llu\n", cause.c_str(),
                 static_cast<unsigned long long>(n));
  }
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------- lp counters --

/// Solver phase counters of the process-wide registry; the benchmark reads
/// them as deltas around the work it attributes.
struct LpCounters {
  double ftran_ms = 0, btran_ms = 0, pricing_ms = 0, factor_ms = 0,
         certify_ms = 0, sweep_ms = 0, pivots = 0, solves = 0;

  static LpCounters read() {
    const auto s = ssco::obs::Registry::global().snapshot();
    LpCounters c;
    c.ftran_ms = s.value("solver_ftran_ns") / 1e6;
    c.btran_ms = s.value("solver_btran_ns") / 1e6;
    c.pricing_ms = s.value("solver_pricing_ns") / 1e6;
    c.factor_ms = s.value("solver_factor_ns") / 1e6;
    c.certify_ms = s.value("solver_certify_ns") / 1e6;
    c.sweep_ms = s.value("solver_pricing_sweep_ns") / 1e6;
    c.pivots = s.value("solver_float_pivots") + s.value("solver_exact_pivots");
    c.solves = s.value("solver_solves");
    return c;
  }
  LpCounters operator-(const LpCounters& o) const {
    return {ftran_ms - o.ftran_ms,     btran_ms - o.btran_ms,
            pricing_ms - o.pricing_ms, factor_ms - o.factor_ms,
            certify_ms - o.certify_ms, sweep_ms - o.sweep_ms,
            pivots - o.pivots,         solves - o.solves};
  }
  LpCounters& operator+=(const LpCounters& o) {
    ftran_ms += o.ftran_ms;
    btran_ms += o.btran_ms;
    pricing_ms += o.pricing_ms;
    factor_ms += o.factor_ms;
    certify_ms += o.certify_ms;
    sweep_ms += o.sweep_ms;
    pivots += o.pivots;
    solves += o.solves;
    return *this;
  }
  [[nodiscard]] double phases_ms() const {
    return ftran_ms + btran_ms + pricing_ms + factor_ms + certify_ms + sweep_ms;
  }
};

// ------------------------------------------------------- per-layer view --

/// Accumulates what a traced run attributes to each layer, per operation,
/// and renders the self-time table and the per-layer metrics. Every
/// workload reports the same metric names; a layer the workload never
/// enters has a share of 0.
struct LayerTable {
  std::string workload;
  std::uint64_t traced_ops = 0;
  double op_ms = 0;                 // sum of traced operation times
  std::map<std::string, double> ms;  // layer -> summed self time
  /// Op latencies per input, traced and untraced, for the overhead.
  std::map<std::string, std::vector<double>> traced, untraced;
  LpCounters lp;                    // deltas over the attributed solves
  double warm_pivots = 0, warm_plans = 0;
  double reduce_plans = 0, colgen_rounds = 0, columns_generated = 0,
         rows_active = 0, factor_fill = 0;
  double plans = 0, schedule_activities = 0;
  double exact_hits = 0, warm_hits = 0, cold_solves = 0, submitted = 0;
  double event_chunks = 0, event_run_ms = 0, exec_runs = 0;
  double eff_before = 0, eff_after = 0, eff_rounds = 0;
  double threaded_eff = 0, threaded_mb_s = 0;
  std::map<std::string, double> extra_ms;  // shown in the table only

  void plan_stats(const ssco::core::FlowPlan& p) {
    ++plans;
    schedule_activities += static_cast<double>(p.schedule.comms.size());
    if (p.flow.warm_started) {
      ++warm_plans;
      warm_pivots += static_cast<double>(p.flow.lp_pivots);
    }
  }
  void plan_stats(const ssco::core::ReducePlan& p) {
    ++plans;
    schedule_activities += static_cast<double>(p.schedule.comms.size() +
                                               p.schedule.comps.size());
    const auto& s = p.solution;
    if (s.warm_started) {
      ++warm_plans;
      warm_pivots += static_cast<double>(s.lp_pivots);
    }
    ++reduce_plans;
    colgen_rounds += static_cast<double>(s.lp_colgen_rounds);
    columns_generated += static_cast<double>(s.lp_columns_generated);
    rows_active += static_cast<double>(s.lp_rows_active);
    factor_fill += static_cast<double>(s.lp_phase_times.factor_fill);
  }
  void plan_stats(const ssco::service::PlanPayload& p) {
    if (p.flow) plan_stats(*p.flow);
    if (p.reduce) plan_stats(*p.reduce);
  }

  void emit(Outcome& out) const {
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double ops = static_cast<double>(traced_ops);
    const double mean_op = per(op_ms, ops);
    auto share = [&](const std::string& layer) {
      auto it = ms.find(layer);
      return it == ms.end() ? 0.0 : 100.0 * per(it->second, op_ms);
    };
    double attributed = 0;
    for (const auto& [layer, v] : ms) attributed += v;

    std::fprintf(stderr,
                 "\nper-layer self time, %s: %llu traced operations, "
                 "mean %.3f ms\n",
                 workload.c_str(), static_cast<unsigned long long>(traced_ops),
                 mean_op);
    std::fprintf(stderr, "  %-26s %12s %8s\n", "layer", "ms/op", "share");
    for (const auto& [layer, v] : ms) {
      std::fprintf(stderr, "  %-26s %12.4f %7.2f%%\n", layer.c_str(),
                   per(v, ops), share(layer));
    }
    std::fprintf(stderr, "  %-26s %12.4f %7.2f%%\n", "residual",
                 per(op_ms - attributed, ops),
                 100.0 * per(op_ms - attributed, op_ms));
    for (const auto& [name, v] : extra_ms) {
      std::fprintf(stderr, "  (%s %.4f)\n", name.c_str(), v);
    }

    auto typical = [](const std::map<std::string, std::vector<double>>& by) {
      std::vector<std::vector<double>> v;
      for (const auto& [input, lat] : by) v.push_back(lat);
      return mean_of_medians(v);
    };
    const double t = typical(traced), u = typical(untraced);
    const double overhead = u > 0 ? 100.0 * (t - u) / u : 0.0;
    std::fprintf(stderr, "  trace overhead %.2f%% (traced %.4f ms, untraced "
                 "%.4f ms, mean of per-input medians)\n",
                 overhead, t, u);

    out.add("trace.op_ms", mean_op, "ms");
    out.add("obs.trace_overhead_pct", overhead, "%");
    out.add("lp.ftran_ms", per(lp.ftran_ms, lp.solves), "ms");
    out.add("lp.btran_ms", per(lp.btran_ms, lp.solves), "ms");
    out.add("lp.factor_ms", per(lp.factor_ms, lp.solves), "ms");
    out.add("lp.pricing_ms", per(lp.pricing_ms, lp.solves), "ms");
    out.add("lp.certify_ms", per(lp.certify_ms, lp.solves), "ms");
    out.add("lp.solves", lp.solves, "count");
    out.add("lp.pivots", per(lp.pivots, lp.solves), "count");
    out.add("lp.warm_pivots", per(warm_pivots, warm_plans), "count");
    out.add("lp.colgen_rounds", per(colgen_rounds, reduce_plans), "count");
    out.add("lp.columns_generated", per(columns_generated, reduce_plans),
            "count");
    out.add("lp.rows_active", per(rows_active, reduce_plans), "count");
    out.add("lp.factor_fill", per(factor_fill, reduce_plans), "count");
    out.add("core.schedule_activities", per(schedule_activities, plans),
            "count");
    out.add("service.exact_hits", exact_hits, "count");
    out.add("service.warm_hits", warm_hits, "count");
    out.add("service.cold_solves", cold_solves, "count");
    out.add("service.exact_hit_ratio", per(exact_hits + warm_hits, submitted),
            "ratio");
    out.add("exec.event_chunks", per(event_chunks, exec_runs), "count");
    out.add("exec.event_chunks_per_s", per(event_chunks, event_run_ms / 1e3),
            "1/s");
    out.add("exec.efficiency_before_permille", per(eff_before, eff_rounds),
            "permille");
    out.add("exec.efficiency_after_permille", per(eff_after, eff_rounds),
            "permille");
    out.add("exec.threaded_efficiency_permille", threaded_eff, "permille");
    out.add("exec.threaded_mb_s", threaded_mb_s, "MB/s");
    for (const char* layer :
         {"core.lp_build", "core.schedule", "lp.phases", "platform.fingerprint",
          "service.cache_lookup", "platform.apply_delta", "exec.compile",
          "exec.event_run", "exec.infer_drift"}) {
      out.add(std::string(layer) + "_pct", share(layer), "%");
    }
    out.add("trace.residual_pct", 100.0 * per(op_ms - attributed, op_ms), "%");
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  std::size_t solver_threads = 2;
};

/// Runs `setup` kSetupRepeats times and returns the median wall time; the
/// state of the last set-up is the one the run uses.
double timed_setup(const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto a = Clock::now();
    setup();
    s.push_back(ms_between(a, Clock::now()) / 1e3);
  }
  return median(s);
}

/// Seeded order of `n` operations for one round.
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return order;
}

std::string tag(const char* what, std::uint64_t seed, std::size_t a,
                std::size_t b) {
  return std::string(what) + std::to_string(seed) + "." + std::to_string(a) +
         "." + std::to_string(b) + ".";
}

// ------------------------------------------------------------ cold-plan --

void cold_plan(const Args& args, Outcome& out) {
  const std::size_t ns = kColdScatterCount;
  const std::size_t nr = std::size(kColdReduceStructures);
  auto scatter = [&](std::size_t i, std::size_t round) {
    return scatter_instance(stream(args.seed, 100 + i), kColdScatterN,
                            kColdScatterTargets, tag("cs", args.seed, i, round));
  };
  auto reduce = [&](std::size_t i, std::size_t round) {
    return reduce_instance(kColdReduceStructures[i], kColdReduceN,
                           kColdReduceParticipants,
                           tag("cr", args.seed, i, round));
  };

  std::vector<Reference> sref, rref;
  const double setup_s = timed_setup([&] {
    sref.clear();
    rref.clear();
    for (std::size_t i = 0; i < ns; ++i) sref.push_back(scatter_reference(scatter(i, 0)));
    for (std::size_t i = 0; i < nr; ++i) rref.push_back(reduce_reference(reduce(i, 0)));
  });

  ssco::core::PlanOptions options;
  options.solver.threads = args.solver_threads;
  ssco::core::ScatterLpOptions slp;
  slp.solver = options.solver;
  ssco::core::ReduceLpOptions rlp;
  rlp.solver = options.solver;

  struct Done {
    std::size_t op, round;
    std::unique_ptr<ssco::core::FlowPlan> flow;
    std::unique_ptr<ssco::core::ReducePlan> red;
  };
  std::vector<Done> done;
  std::vector<std::vector<double>> lat(ns + nr);
  SpanLog spans;
  LayerTable table;
  table.workload = args.workload;
  std::uint64_t op_counter = 0;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  std::size_t round = 0;
  for (; round == 0 || Clock::now() < deadline; ++round) {
    for (std::size_t op : shuffled(ns + nr, stream(args.seed, 1000 + round))) {
      const bool traced = args.trace && (op_counter++ % 2 == 1);
      Done d{op, round, nullptr, nullptr};
      double ms = 0;
      if (op < ns) {
        const auto inst = scatter(op, round);
        if (!traced) {
          const auto a = Clock::now();
          d.flow = std::make_unique<ssco::core::FlowPlan>(
              ssco::core::optimize_scatter(inst, options));
          ms = ms_between(a, Clock::now());
        } else {
          const double build = spans.time("core.build_scatter_lp", 0, [&] {
            (void)ssco::core::build_scatter_lp(inst);
          });
          const auto lp0 = LpCounters::read();
          d.flow = std::make_unique<ssco::core::FlowPlan>();
          const double solve = spans.time("core.solve_scatter", 0, [&] {
            d.flow->flow = ssco::core::solve_scatter(inst, slp);
          });
          const auto lp = LpCounters::read() - lp0;
          const double sched = spans.time("core.build_flow_schedule", 0, [&] {
            d.flow->schedule =
                ssco::core::build_flow_schedule(inst.platform, d.flow->flow);
          });
          ms = solve + sched;
          table.ms["core.lp_build"] += build;
          table.ms["lp.phases"] += lp.phases_ms();
          table.ms["core.schedule"] += sched;
          table.lp += lp;
          table.op_ms += ms;
          ++table.traced_ops;
          table.extra_ms["lp.solve_ms total"] += solve - build;
          table.extra_ms["lp.unattributed_ms total"] +=
              solve - build - lp.phases_ms();
          table.plan_stats(*d.flow);
        }
      } else {
        const auto inst = reduce(op - ns, round);
        if (!traced) {
          const auto a = Clock::now();
          d.red = std::make_unique<ssco::core::ReducePlan>(
              ssco::core::optimize_reduce(inst, options));
          ms = ms_between(a, Clock::now());
        } else {
          const double build = spans.time("core.build_reduce_lp", 0, [&] {
            (void)ssco::core::build_reduce_lp(inst, rlp);
          });
          const auto lp0 = LpCounters::read();
          d.red = std::make_unique<ssco::core::ReducePlan>();
          const double solve = spans.time("core.solve_reduce", 0, [&] {
            d.red->solution = ssco::core::solve_reduce(inst, rlp);
          });
          const auto lp = LpCounters::read() - lp0;
          const double sched = spans.time("core.build_reduce_schedule", 0, [&] {
            d.red->trees = ssco::core::extract_trees(inst, d.red->solution);
            d.red->schedule =
                ssco::core::build_reduce_schedule(inst, d.red->trees);
          });
          ms = solve + sched;
          table.ms["core.lp_build"] += build;
          table.ms["lp.phases"] += lp.phases_ms();
          table.ms["core.schedule"] += sched;
          table.lp += lp;
          table.op_ms += ms;
          ++table.traced_ops;
          table.extra_ms["lp.solve_ms total"] += solve - build;
          table.extra_ms["lp.unattributed_ms total"] +=
              solve - build - lp.phases_ms();
          table.extra_ms["lp.pricing_sweep_ms total"] += lp.sweep_ms;
          table.plan_stats(*d.red);
        }
      }
      (traced ? table.traced : table.untraced)[std::to_string(op)].push_back(ms);
      if (!traced) lat[op].push_back(ms);
      done.push_back(std::move(d));
    }
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;

  for (const Done& d : done) {
    if (d.flow) {
      out.count(check_scatter_plan(scatter(d.op, d.round), *d.flow, sref[d.op]));
    } else {
      out.count(check_reduce_plan(reduce(d.op - ns, d.round), *d.red,
                                  rref[d.op - ns]));
    }
  }
  std::fprintf(stderr, "cold-plan: %zu rounds of %zu scatter + %zu reduce "
               "plans in %.2f s\n", round, ns, nr, wall_s);

  if (args.trace) {
    table.emit(out);
    spans.save(args.trace_file);
    return;
  }
  out.add("setup_s", setup_s, "s");
  out.add("scatter_ms",
          mean_of_medians({lat.begin(), lat.begin() + static_cast<long>(ns)}),
          "ms");
  out.add("reduce_ms",
          mean_of_medians({lat.begin() + static_cast<long>(ns), lat.end()}),
          "ms");
  out.add("ops_per_s", static_cast<double>(done.size()) / wall_s, "1/s");
}

// ---------------------------------------------------------- serve-drift --

/// A drift step: kDriftLinks random links of `pf` run slower or faster by
/// a factor in {4/5, 9/10, 10/9, 5/4}, both directions alike.
ssco::platform::PlatformDelta drift_step(const ssco::platform::Platform& pf,
                                         Rng& rng) {
  static const Rational kFactor[] = {Rational(4, 5), Rational(9, 10),
                                     Rational(10, 9), Rational(5, 4)};
  ssco::platform::PlatformDelta d;
  std::vector<ssco::graph::EdgeId> picked;
  while (picked.size() < kDriftLinks) {
    const auto e = static_cast<ssco::graph::EdgeId>(
        rng.uniform(0, static_cast<std::int64_t>(pf.num_edges()) - 1));
    const auto& edge = pf.graph().edge(e);
    const auto rev = pf.graph().find_edge(edge.dst, edge.src);
    if (std::find(picked.begin(), picked.end(), e) != picked.end() ||
        std::find(picked.begin(), picked.end(), rev) != picked.end()) {
      continue;
    }
    picked.push_back(e);
    const Rational cost = pf.edge_cost(e) * kFactor[rng.uniform(0, 3)];
    d.cost_changes.push_back({e, cost});
    if (rev != ssco::graph::kInvalidId) d.cost_changes.push_back({rev, cost});
  }
  return d;
}

template <typename Inst>
Inst with_platform(const Inst& base, ssco::platform::Platform pf) {
  Inst inst = base;
  inst.platform = std::move(pf);
  return inst;
}

struct Served {
  PlanRequest request;
  std::shared_ptr<const ssco::service::PlanPayload> payload;
};

/// Cold re-solve and plan checks of every warm-served plan, after timing,
/// spread over the host's threads (the service is idle by then).
void check_served(const std::vector<Served>& served, Outcome& out,
                  bool compare_cold) {
  std::vector<Failures> results(served.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    ssco::core::ScatterLpOptions slp;
    slp.solver.threads = 1;
    ssco::core::ReduceLpOptions rlp;
    rlp.solver.threads = 1;
    for (std::size_t i; (i = next.fetch_add(1)) < served.size();) {
      const Served& s = served[i];
      Failures f;
      try {
        if (const auto* inst = std::get_if<ScatterInstance>(&s.request.instance)) {
          f = check_scatter_plan(*inst, *s.payload->flow, scatter_reference(*inst));
          if (compare_cold) {
            const auto cold = ssco::core::solve_scatter(*inst, slp);
            for (auto& c : check_warm_equals_cold(s.payload->throughput(),
                                                  cold.throughput)) {
              f.push_back(c);
            }
          }
        } else {
          const auto& rinst = std::get<ReduceInstance>(s.request.instance);
          f = check_reduce_plan(rinst, *s.payload->reduce, reduce_reference(rinst));
          if (compare_cold) {
            const auto cold = ssco::core::solve_reduce(rinst, rlp);
            for (auto& c : check_warm_equals_cold(s.payload->throughput(),
                                                  cold.throughput)) {
              f.push_back(c);
            }
          }
        }
      } catch (const std::exception&) {
        f.push_back("check_threw");
      }
      results[i] = std::move(f);
    }
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  for (const auto& f : results) out.count(f);
}

std::string error_cause(const std::exception& e) {
  if (const auto* se = dynamic_cast<const ssco::service::ServiceError*>(&e)) {
    return std::string("service_error:") + ssco::service::to_string(se->code());
  }
  return "exception";
}

void serve_drift(const Args& args, Outcome& out) {
  struct Client {
    ScatterInstance scatter;  // the version currently served
    ReduceInstance reduce;
    std::shared_ptr<const ssco::service::PlanPayload> scatter_plan, reduce_plan;
  };
  std::unique_ptr<ssco::service::PlanService> service;
  std::vector<Client> clients;
  std::vector<Served> primed;

  const double setup_s = timed_setup([&] {
    service.reset();
    clients.clear();
    primed.clear();
    ssco::service::PlanServiceOptions so;
    so.num_workers = 2;
    so.solve_threads = 1;
    service = std::make_unique<ssco::service::PlanService>(so);
    for (std::size_t c = 0; c < kServeClients; ++c) {
      clients.push_back(
          {scatter_instance(kServeScatterStructures[c], kServeScatterN,
                            kServeScatterTargets, tag("ss", args.seed, c, 0)),
           reduce_instance(kServeReduceStructures[c], kServeReduceN,
                           kServeReduceParticipants, tag("sr", args.seed, c, 0)),
           nullptr, nullptr});
    }
    std::vector<std::future<PlanResult>> f;
    for (auto& c : clients) {
      f.push_back(service->submit({c.scatter, {}}));
      f.push_back(service->submit({c.reduce, {}}));
    }
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c].scatter_plan = f[2 * c].get().payload;
      clients[c].reduce_plan = f[2 * c + 1].get().payload;
    }
  });
  for (auto& c : clients) {
    primed.push_back({{c.scatter, {}}, c.scatter_plan});
    primed.push_back({{c.reduce, {}}, c.reduce_plan});
  }

  struct ClientLog {
    std::vector<double> scatter_ms, reduce_ms;
    std::map<std::string, std::vector<double>> traced, untraced;
    std::uint64_t drift_steps = 0, traced_drift_steps = 0;
    std::vector<Served> warm;
    std::uint64_t requests = 0;
    Outcome checks;  // hit-class and exception outcomes, merged below
    double fingerprint_ms = 0, lookup_ms = 0, apply_delta_ms = 0, op_ms = 0;
    std::uint64_t traced_ops = 0;
  };
  std::vector<ClientLog> logs(clients.size());
  std::atomic<bool> stop{false};
  SpanLog spans;
  ssco::service::PlanCache mirror(8, 128);  // replica of the service cache

  auto run_client = [&](std::size_t c) {
    Client& cl = clients[c];
    const ssco::platform::Platform scatter_base = cl.scatter.platform;
    const ssco::platform::Platform reduce_base = cl.reduce.platform;
    ClientLog& log = logs[c];
    Rng rng(stream(args.seed, 400 + c));
    const int tid = static_cast<int>(c);
    std::uint64_t n = 0, round = 0;
    auto one = [&](PlanRequest req, bool drift, std::vector<double>& lat,
                   std::shared_ptr<const ssco::service::PlanPayload>& current) {
      // A round has an even number of requests; shifting by the round
      // number traces every request position in alternate rounds.
      const bool traced = args.trace && ((n++ + round) % 2 == 1);
      const std::string input =
          std::string(std::holds_alternative<ScatterInstance>(req.instance)
                          ? "scatter"
                          : "reduce") +
          (drift ? ".drift" : ".repeat");
      if (drift) {
        ++log.drift_steps;
        if (traced) ++log.traced_drift_steps;
      }
      if (traced) {
        ssco::service::RequestDigest d;
        log.fingerprint_ms += spans.time("service.digest", tid, [&] {
          d = ssco::service::digest(req);
        });
        log.lookup_ms += spans.time("PlanCache.find_exact", tid, [&] {
          (void)mirror.find_exact(d.key, d.fingerprint.structure,
                                  [&](const ssco::service::PlanPayload& p) {
                                    return ssco::service::same_request(req, p.request);
                                  });
        });
      }
      Failures f;
      const auto a = Clock::now();
      try {
        PlanResult r = service->submit(req).get();
        const double ms = ms_between(a, Clock::now());
        if (traced) {
          spans.record("PlanService.submit", tid, a, Clock::now());
          log.op_ms += ms;
          ++log.traced_ops;
        }
        (traced ? log.traced : log.untraced)[input].push_back(ms);
        if (!traced) lat.push_back(ms);
        using Source = PlanResult::Source;
        if (drift) {
          // A drift step is served by a warm re-solve, or by a cold one when
          // the solver cannot certify the warm path; never from the cache.
          if (r.source != Source::kWarmHit && r.source != Source::kColdSolve) {
            f.push_back("hit_class");
          }
          current = r.payload;
          log.warm.push_back({std::move(req), r.payload});
          if (args.trace) {
            const auto d = ssco::service::digest(log.warm.back().request);
            mirror.insert(d.key, d.fingerprint.structure, r.payload);
          }
        } else {
          if (r.source != Source::kExactHit) f.push_back("hit_class");
          if (r.payload != current) f.push_back("exact_hit_payload");
        }
      } catch (const std::exception& e) {
        f.push_back(error_cause(e));
      }
      ++log.requests;
      log.checks.count(f);
    };
    if (args.trace) {
      for (auto* p : {&cl.scatter_plan, &cl.reduce_plan}) {
        const auto d = ssco::service::digest((*p)->request);
        mirror.insert(d.key, d.fingerprint.structure, *p);
      }
    }
    while (!stop.load()) {
      {
        ssco::platform::DeltaResult next;
        const auto delta = drift_step(scatter_base, rng);
        log.apply_delta_ms += spans.time("platform.apply_delta", tid, [&] {
          next = ssco::platform::apply_delta(scatter_base, delta);
        });
        cl.scatter = with_platform(cl.scatter, std::move(next.platform));
        one({cl.scatter, {}}, true, log.scatter_ms, cl.scatter_plan);
        for (std::size_t i = 0; i < kScatterRepeats; ++i) {
          one({cl.scatter, {}}, false, log.scatter_ms, cl.scatter_plan);
        }
      }
      {
        ssco::platform::DeltaResult next;
        const auto delta = drift_step(reduce_base, rng);
        log.apply_delta_ms += spans.time("platform.apply_delta", tid, [&] {
          next = ssco::platform::apply_delta(reduce_base, delta);
        });
        cl.reduce = with_platform(cl.reduce, std::move(next.platform));
        one({cl.reduce, {}}, true, log.reduce_ms, cl.reduce_plan);
        for (std::size_t i = 0; i < kReduceRepeats; ++i) {
          one({cl.reduce, {}}, false, log.reduce_ms, cl.reduce_plan);
        }
      }
      ++round;
    }
  };

  const auto lp0 = LpCounters::read();
  const auto m0 = service->metrics();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) threads.emplace_back(run_client, c);
  std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  const auto lp = LpCounters::read() - lp0;
  const auto m1 = service->metrics();
  service.reset();

  std::vector<Served> warm;
  std::uint64_t requests = 0;
  for (auto& log : logs) {
    requests += log.requests;
    out.attempted += log.checks.attempted;
    out.failed += log.checks.failed;
    for (const auto& [k, v] : log.checks.causes) out.causes[k] += v;
    warm.insert(warm.end(), log.warm.begin(), log.warm.end());
  }
  check_served(primed, out, false);
  check_served(warm, out, true);
  std::fprintf(stderr, "serve-drift: %llu requests (%zu warm) in %.2f s\n",
               static_cast<unsigned long long>(requests), warm.size(), wall_s);

  if (args.trace) {
    LayerTable table;
    table.workload = args.workload;
    std::uint64_t drift_steps = 0, traced_drift_steps = 0;
    for (const auto& log : logs) {
      table.traced_ops += log.traced_ops;
      table.op_ms += log.op_ms;
      table.ms["platform.fingerprint"] += log.fingerprint_ms;
      table.ms["service.cache_lookup"] += log.lookup_ms;
      for (const auto& [input, v] : log.traced) {
        auto& dst = table.traced[input];
        dst.insert(dst.end(), v.begin(), v.end());
      }
      for (const auto& [input, v] : log.untraced) {
        auto& dst = table.untraced[input];
        dst.insert(dst.end(), v.begin(), v.end());
      }
      drift_steps += log.drift_steps;
      traced_drift_steps += log.traced_drift_steps;
      table.extra_ms["platform.apply_delta_us per drift step"] +=
          1e3 * log.apply_delta_ms / static_cast<double>(std::max<std::size_t>(1, warm.size()));
    }
    // Solves ran on the service's workers for traced and untraced drift
    // steps alike; the traced steps' share of the phase time is attributed
    // pro rata.
    const double share = static_cast<double>(traced_drift_steps) /
                         static_cast<double>(std::max<std::uint64_t>(1, drift_steps));
    table.ms["lp.phases"] += lp.phases_ms() * share;
    table.lp = lp;
    for (const auto& s : warm) table.plan_stats(*s.payload);
    table.exact_hits = static_cast<double>(m1.exact_hits - m0.exact_hits);
    table.warm_hits = static_cast<double>(m1.warm_hits - m0.warm_hits);
    table.cold_solves = static_cast<double>(m1.cold_solves - m0.cold_solves);
    table.submitted = static_cast<double>(m1.submitted - m0.submitted);
    table.emit(out);
    spans.save(args.trace_file);
    return;
  }
  std::vector<std::vector<double>> sc, rd;
  for (const auto& log : logs) {
    sc.push_back(log.scatter_ms);
    rd.push_back(log.reduce_ms);
  }
  out.add("setup_s", setup_s, "s");
  out.add("scatter_ms", mean_of_medians(sc), "ms");
  out.add("reduce_ms", mean_of_medians(rd), "ms");
  out.add("ops_per_s", static_cast<double>(requests) / wall_s, "1/s");
}

// ------------------------------------------------------------ exec-loop --

void exec_loop(const Args& args, Outcome& out) {
  std::vector<PlanRequest> base;
  auto make = [&] {
    base.clear();
    for (std::size_t i = 0; i < std::size(kExecScatterN); ++i) {
      base.push_back({scatter_instance(kExecScatterStructures[i], kExecScatterN[i],
                                       kExecScatterN[i] / 4,
                                       tag("es", args.seed, i, 0), true),
                      {}});
    }
    for (std::size_t i = 0; i < kExecReduceCount; ++i) {
      base.push_back({reduce_instance(kExecReduceStructures[i], kExecReduceN,
                                      kExecReduceParticipants,
                                      tag("er", args.seed, i, 0), true),
                      {}});
    }
  };
  std::unique_ptr<ssco::service::PlanService> service;
  std::vector<Served> primed;
  const double setup_s = timed_setup([&] {
    service.reset();
    primed.clear();
    make();
    ssco::service::PlanServiceOptions so;
    so.num_workers = 1;
    so.solve_threads = 1;
    service = std::make_unique<ssco::service::PlanService>(so);
    std::vector<std::future<PlanResult>> f;
    for (const auto& r : base) f.push_back(service->submit(r));
    for (std::size_t i = 0; i < base.size(); ++i) primed.push_back({base[i], f[i].get().payload});
  });
  const std::size_t nplans = base.size();
  const std::size_t nscatter = std::size(kExecScatterN);

  /// Seeded per-link rate scales: about half the links run slower or
  /// faster than modeled, symmetric in both directions.
  auto scales_for = [&](const ssco::platform::Platform& pf, std::size_t plan) {
    Rng rng(stream(kExecScalePattern, plan));
    static constexpr double kScales[] = {0.5, 2.0 / 3.0, 0.8, 4.0 / 3.0};
    std::vector<double> s(pf.num_edges(), 1.0);
    for (ssco::graph::EdgeId e = 0; e < pf.num_edges(); ++e) {
      const auto& edge = pf.graph().edge(e);
      if (edge.src > edge.dst) continue;
      if (rng.unit() < 0.5) {
        const double v = kScales[rng.uniform(0, 3)];
        s[e] = v;
        const auto rev = pf.graph().find_edge(edge.dst, edge.src);
        if (rev != ssco::graph::kInvalidId) s[rev] = v;
      }
    }
    return s;
  };

  struct RoundLog {
    std::size_t plan;
    std::vector<double> scale;
    ssco::service::ExecuteResult first, second;
  };
  std::vector<RoundLog> rounds;
  std::vector<std::vector<double>> lat(nplans);
  SpanLog spans;
  LayerTable table;
  table.workload = args.workload;
  const auto lp0 = LpCounters::read();
  const auto m0 = service->metrics();
  std::uint64_t op_counter = 0;
  Outcome errors;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  for (std::size_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    for (std::size_t p : shuffled(nplans, stream(args.seed, 2000 + round))) {
      const bool traced = args.trace && (op_counter++ % 2 == 1);
      RoundLog log{p, scales_for(base[p].platform(), p), {}, {}};
      ssco::service::ExecuteOptions drifted;
      drifted.simulate = true;
      drifted.drift_threshold = kDriftThreshold;
      drifted.exec.link_rate_scale = log.scale;
      ssco::service::ExecuteOptions plain;
      plain.simulate = true;
      plain.drift_threshold = kDriftThreshold;
      const auto a = Clock::now();
      try {
        log.first = service->execute(base[p], drifted);
        log.second = service->execute(
            log.first.resolved ? log.first.drifted_request : base[p], plain);
      } catch (const std::exception& e) {
        errors.count({error_cause(e)});
        continue;
      }
      const auto b = Clock::now();
      const double ms = ms_between(a, b);
      (traced ? table.traced : table.untraced)[std::to_string(p)].push_back(ms);
      if (!traced) lat[p].push_back(ms);
      if (traced) {
        spans.record("exec_round", 0, a, b);
        table.op_ms += ms;
        ++table.traced_ops;
        double service_ms = log.first.plan.latency_ms + log.second.plan.latency_ms;
        if (log.first.resolved) service_ms += log.first.updated.latency_ms;
        table.extra_ms["exec.resolve_ms total"] += log.first.updated.latency_ms;
        table.extra_ms["service.submit_ms total"] += service_ms;
        // Replicas of the calls execute() makes, timed one by one.
        for (const auto* r : {&log.first, &log.second}) {
          const PlanRequest& req = r == &log.first ? base[p] : log.second.plan.payload->request;
          const auto& opts = r == &log.first ? drifted : plain;
          const auto& payload = *r->plan.payload;
          table.ms["platform.fingerprint"] += spans.time("service.digest", 0, [&] {
            (void)ssco::service::digest(req);
          });
          ssco::exec::ExecProgram program;
          table.ms["exec.compile"] += spans.time("exec.compile_program", 0, [&] {
            program = payload.flow
                          ? ssco::exec::compile_flow_program(
                                req.platform(), payload.flow->flow,
                                payload.flow->schedule, opts.exec)
                          : ssco::exec::compile_reduce_program(
                                std::get<ReduceInstance>(req.instance),
                                payload.throughput(), payload.reduce->schedule,
                                opts.exec);
          });
          ssco::exec::ExecReport report;
          const double run = spans.time("sim.simulate_execution", 0, [&] {
            report = ssco::sim::simulate_execution(program, opts.exec);
          });
          table.ms["exec.event_run"] += run;
          table.event_run_ms += run;
          ++table.exec_runs;
          double chunks = 0;
          for (const auto& t : program.transfers) chunks += static_cast<double>(t.chunks.size());
          table.event_chunks += chunks * static_cast<double>(opts.exec.warmup_periods +
                                                             opts.exec.measure_periods);
          ssco::platform::PlatformDelta drift;
          table.ms["exec.infer_drift"] += spans.time("exec.infer_cost_drift", 0, [&] {
            drift = ssco::exec::infer_cost_drift(req.platform(), report, kDriftThreshold);
          });
          if (!drift.empty()) {
            table.ms["platform.apply_delta"] += spans.time("platform.apply_delta", 0, [&] {
              (void)ssco::platform::apply_delta(req.platform(), drift);
            });
          }
        }
        if (log.first.resolved) {
          table.ms["platform.fingerprint"] += spans.time("service.digest", 0, [&] {
            (void)ssco::service::digest(log.first.drifted_request);
          });
        }
      }
      rounds.push_back(std::move(log));
    }
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  const auto lp = LpCounters::read() - lp0;
  const auto m1 = service->metrics();

  std::size_t threaded_workers = 0;
  if (args.trace) {
    // Threaded-backend figures: host-dependent, measured only here, with
    // fewer workers than the host has threads.
    const std::size_t hw = std::max<std::size_t>(2, std::thread::hardware_concurrency());
    threaded_workers = std::min<std::size_t>(3, hw - 1);
    ssco::exec::ExecOptions eo;
    eo.workers = threaded_workers;
    const auto& payload = *primed.front().payload;
    const auto report = ssco::exec::execute_flow(primed.front().request.platform(),
                                                 *payload.flow, eo);
    table.threaded_eff = 1000.0 * report.efficiency;
    table.threaded_mb_s = report.achieved_bytes_per_sec / 1e6;
    out.count(check_exec_report(report, payload.throughput(),
                                payload.flow->schedule.period, false));
  }
  service.reset();

  // Checks, after timing.
  out.attempted += errors.attempted;
  out.failed += errors.failed;
  for (const auto& [k, v] : errors.causes) out.causes[k] += v;
  std::vector<Served> warm;
  for (const RoundLog& r : rounds) {
    Failures f;
    auto add = [&](const Failures& more) { f.insert(f.end(), more.begin(), more.end()); };
    auto period = [](const ssco::service::PlanPayload& p) {
      return p.flow ? p.flow->schedule.period : p.reduce->schedule.period;
    };
    const auto& p1 = *r.first.plan.payload;
    add(check_exec_report(r.first.report, p1.throughput(), period(p1), false));
    add(check_inferred_drift(base[r.plan].platform(), r.first.report, r.scale,
                             kDriftThreshold, r.first.drift));
    const auto& p2 = *r.second.plan.payload;
    add(check_exec_report(r.second.report, p2.throughput(), period(p2), true));
    add(check_inferred_drift(p2.request.platform(), r.second.report, {},
                             kDriftThreshold, r.second.drift));
    if (r.second.plan.source != PlanResult::Source::kExactHit) f.push_back("hit_class");
    out.count(f);
    table.eff_before += 1000.0 * r.first.report.efficiency;
    table.eff_after += 1000.0 * r.second.report.efficiency;
    ++table.eff_rounds;
    if (r.first.plan.source == PlanResult::Source::kWarmHit) warm.push_back({base[r.plan], r.first.plan.payload});
    if (r.first.resolved) warm.push_back({r.first.drifted_request, r.first.updated.payload});
  }
  check_served(primed, out, false);
  check_served(warm, out, true);
  std::fprintf(stderr, "exec-loop: %zu execute rounds (%zu warm plans) in %.2f s\n",
               rounds.size(), warm.size(), wall_s);

  if (args.trace) {
    const double share = static_cast<double>(table.traced_ops) /
                         static_cast<double>(std::max<std::size_t>(1, rounds.size()));
    table.ms["lp.phases"] += lp.phases_ms() * share;
    table.lp = lp;
    for (const auto& s : warm) table.plan_stats(*s.payload);
    table.exact_hits = static_cast<double>(m1.exact_hits - m0.exact_hits);
    table.warm_hits = static_cast<double>(m1.warm_hits - m0.warm_hits);
    table.cold_solves = static_cast<double>(m1.cold_solves - m0.cold_solves);
    table.submitted = static_cast<double>(m1.submitted - m0.submitted);
    table.extra_ms["threaded workers"] = static_cast<double>(threaded_workers);
    table.emit(out);
    spans.save(args.trace_file);
    return;
  }
  out.add("setup_s", setup_s, "s");
  out.add("scatter_ms",
          mean_of_medians({lat.begin(), lat.begin() + static_cast<long>(nscatter)}), "ms");
  out.add("reduce_ms",
          mean_of_medians({lat.begin() + static_cast<long>(nscatter), lat.end()}), "ms");
  out.add("ops_per_s", static_cast<double>(rounds.size()) / wall_s, "1/s");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-plan|serve-drift|exec-loop "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
               "[--solver-threads K]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--trace-file") args.trace_file = v;
    else if (k == "--solver-threads") args.solver_threads = std::stoul(v);
    else return usage();
  }
  if (argc % 2 != 1) return usage();
  if (args.trace && args.trace_file.empty()) args.trace_file = "perfbench-trace.json";

  Outcome out;
  const Failures missed = self_test();
  for (const auto& m : missed) {
    std::fprintf(stderr, "self-test: corruption not caught: %s\n", m.c_str());
  }
  out.correct = missed.empty();

  try {
    if (args.workload == "cold-plan") cold_plan(args, out);
    else if (args.workload == "serve-drift") serve_drift(args, out);
    else if (args.workload == "exec-loop") exec_loop(args, out);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(out);
  return 0;
}
