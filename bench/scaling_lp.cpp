// Timing benchmark (google-benchmark) for the LP pipeline, plus the
// exact-arithmetic ablation called out in DESIGN.md:
//   * scatter/gossip/reduce LP build+solve time vs platform size, with the
//     per-solve pivot count as a machine-comparable counter (wall-clock is
//     noisy on this container; pivots are not);
//   * the n=128/256 sparse-platform regime (wafer-scale-like density) for
//     scatter and reduce — the sizes the sparse pricing+scaling stack
//     exists for;
//   * a phase breakdown of one n=64 solve (FTRAN/BTRAN/pricing/factor) so
//     future pricing work is measurable from BENCH_lp.json;
//   * double-solve + rational certificate (our default) vs pure exact
//     simplex — the design choice that makes exact results affordable;
//   * incremental re-solve after a single-edge cost perturbation (warm
//     dual-simplex start vs cold), tracked in BENCH_lp.json as the
//     resolve_pivots / resolve_ms / cold_pivots counters.
//
// Iteration counts are pinned so the full harness stays fast on one core.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>

#include "core/gather_lp.h"
#include "core/gossip_lp.h"
#include "core/reduce_lp.h"
#include "core/scatter_lp.h"
#include "lp/exact_solver.h"
#include "lp/parallel.h"
#include "obs/trace.h"
#include "platform/delta.h"
#include "platform/paper_instances.h"
#include "service/metrics.h"
#include "testing_support.h"

using namespace ssco;

namespace {

void BM_ScatterLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_scatter_instance(42, n, n / 2);
  std::size_t pivots = 0;
  std::size_t solves = 0;
  for (auto _ : state) {
    auto flow = core::solve_scatter(inst);
    benchmark::DoNotOptimize(flow.throughput);
    pivots += flow.lp_pivots;
    ++solves;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["pivots"] =
      static_cast<double>(pivots) / static_cast<double>(solves ? solves : 1);
  state.counters["pivots_per_sec"] = benchmark::Counter(
      static_cast<double>(pivots), benchmark::Counter::kIsRate);
}
// The args beyond 18 are the regime the dense tableau could not reach; they
// exercise the revised engine's eta/refactorization cycle at scale.
BENCHMARK(BM_ScatterLp)->Arg(6)->Arg(10)->Arg(14)->Arg(18)->Arg(32)->Arg(48)
    ->Arg(64)->Iterations(3)->Unit(benchmark::kMillisecond);

// Large sparse platforms (~6n arcs, the density of wafer-scale fabrics):
// the n=128/256 regime the sparse pricing+scaling stack targets. One
// iteration — a single solve at this size is signal enough, and the pivot
// counter is deterministic.
void BM_ScatterLpLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_sparse_scatter_instance(42, n, 16);
  std::size_t pivots = 0;
  std::size_t certified = 1;
  for (auto _ : state) {
    auto flow = core::solve_scatter(inst);
    benchmark::DoNotOptimize(flow.throughput);
    pivots += flow.lp_pivots;
    certified = certified && flow.certified ? 1 : 0;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["pivots"] = static_cast<double>(pivots);
  state.counters["certified"] = static_cast<double>(certified);
}
BENCHMARK(BM_ScatterLpLarge)->Arg(128)->Arg(256)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The reduce-family colgen showcase (kAuto turns column generation on at
// these sizes): columns_generated / columns_total is the fraction of the
// quadratic variable space ever materialized, colgen_rounds the pricing
// loop length — both deterministic on a given instance and tracked in
// BENCH_lp.json alongside the wall-clock the CI gate watches.
void BM_ReduceLpLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_sparse_reduce_instance(44, n, 8);
  std::size_t pivots = 0;
  std::size_t certified = 1;
  std::size_t rounds = 0;
  std::size_t generated = 0;
  std::size_t total = 0;
  std::size_t rows_active = 0;
  std::size_t rows_total = 0;
  std::size_t stab_rounds = 0;
  std::size_t factor_fill = 0;
  std::uint64_t certify_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t ftran_ns = 0;
  std::uint64_t btran_ns = 0;
  std::uint64_t pricing_ns = 0;
  std::uint64_t factor_ns = 0;
  core::ReduceLpOptions options;
  for (auto _ : state) {
    auto sol = core::solve_reduce(inst, options);
    benchmark::DoNotOptimize(sol.throughput);
    pivots += sol.lp_pivots;
    certified = certified && sol.certified ? 1 : 0;
    rounds += sol.lp_colgen_rounds;
    generated += sol.lp_columns_generated;
    total = sol.lp_columns_total;
    rows_active += sol.lp_rows_active;
    rows_total = sol.lp_rows_total;
    stab_rounds += sol.lp_stab_rounds;
    factor_fill = std::max(factor_fill, sol.lp_phase_times.factor_fill);
    certify_ns += sol.lp_phase_times.certify_ns;
    sweep_ns += sol.lp_phase_times.pricing_sweep_ns;
    ftran_ns += sol.lp_phase_times.ftran_ns;
    btran_ns += sol.lp_phase_times.btran_ns;
    pricing_ns += sol.lp_phase_times.pricing_ns;
    factor_ns += sol.lp_phase_times.factor_ns;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["pivots"] = static_cast<double>(pivots);
  state.counters["certified"] = static_cast<double>(certified);
  state.counters["colgen_rounds"] = static_cast<double>(rounds);
  state.counters["columns_generated"] = static_cast<double>(generated);
  state.counters["columns_total"] = static_cast<double>(total);
  state.counters["rows_active"] = static_cast<double>(rows_active);
  state.counters["rows_total"] = static_cast<double>(rows_total);
  state.counters["stab_rounds"] = static_cast<double>(stab_rounds);
  state.counters["factor_fill_nonzeros"] = static_cast<double>(factor_fill);
  state.counters["certify_ms"] = static_cast<double>(certify_ns) / 1e6;
  state.counters["pricing_sweep_ms"] = static_cast<double>(sweep_ns) / 1e6;
  state.counters["ftran_ms"] = static_cast<double>(ftran_ns) / 1e6;
  state.counters["btran_ms"] = static_cast<double>(btran_ns) / 1e6;
  state.counters["pricing_ms"] = static_cast<double>(pricing_ns) / 1e6;
  state.counters["factor_ms"] = static_cast<double>(factor_ns) / 1e6;
  state.counters["threads"] =
      static_cast<double>(lp::resolve_threads(options.solver.threads));
}
BENCHMARK(BM_ReduceLpLarge)->Arg(128)->Arg(256)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// One direct ExactSolver run at n=64 with the phase timers surfaced as
// counters (and the io/report rendering printed to stderr): the
// FTRAN/BTRAN/pricing/factorization split that makes future pricing work
// measurable across PRs.
void BM_ScatterLpBreakdown(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_scatter_instance(42, n, n / 2);
  auto model = core::build_scatter_lp(inst);
  lp::ExactSolver solver;
  std::size_t factor_fill = 0;
  for (auto _ : state) {
    auto sol = solver.solve(model);
    benchmark::DoNotOptimize(sol.objective);
    factor_fill = std::max(factor_fill, sol.phase_times.factor_fill);
  }
  const lp::SolverStats stats = solver.stats();
  const double solves = static_cast<double>(stats.solves ? stats.solves : 1);
  state.counters["ftran_ms"] =
      static_cast<double>(stats.ftran_ns) / 1e6 / solves;
  state.counters["btran_ms"] =
      static_cast<double>(stats.btran_ns) / 1e6 / solves;
  state.counters["pricing_ms"] =
      static_cast<double>(stats.pricing_ns) / 1e6 / solves;
  state.counters["factor_ms"] =
      static_cast<double>(stats.factor_ns) / 1e6 / solves;
  state.counters["factor_fill_nonzeros"] = static_cast<double>(factor_fill);
  state.counters["certify_ms"] =
      static_cast<double>(stats.certify_ns) / 1e6 / solves;
  state.counters["pricing_sweep_ms"] =
      static_cast<double>(stats.pricing_sweep_ns) / 1e6 / solves;
  state.counters["threads"] =
      static_cast<double>(lp::resolve_threads(solver.options().threads));

  // Tracing overhead gate: min-of-3 untraced vs min-of-3 traced solves of
  // the same model (min is the noise-robust statistic for "how fast CAN it
  // go"). check_bench_regression.cmake fails the build if the overhead
  // exceeds its permille ceiling — the "<2% when enabled" budget in
  // DESIGN.md "Observability".
  using clock = std::chrono::steady_clock;
  auto min_solve_ms = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      auto sol = solver.solve(model);
      benchmark::DoNotOptimize(sol.objective);
      best = std::min(
          best, std::chrono::duration<double, std::milli>(clock::now() - t0)
                    .count());
    }
    return best;
  };
  const double untraced_ms = min_solve_ms();
  obs::Trace::enable();
  const double traced_ms = min_solve_ms();
  obs::Trace::disable();
  state.counters["traced_events"] =
      static_cast<double>(obs::Trace::event_count());
  state.counters["trace_overhead_permille"] = std::max(
      0.0, (traced_ms - untraced_ms) / std::max(untraced_ms, 1e-9) * 1000.0);

  std::cerr << service::format_solver_stats(stats);
}
BENCHMARK(BM_ScatterLpBreakdown)->Arg(64)->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// Incremental re-solve: perturb one edge cost per iteration and warm-start
// from the previous plan's basis. `resolve_pivots`/`resolve_ms` are the
// per-re-solve averages; `cold_pivots`/`cold_ms` the cold baseline on the
// same mutated instances — their ratio is the re-solve speedup tracked
// across PRs.
void BM_ScatterResolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_scatter_instance(42, n, n / 2);
  auto plan = core::solve_scatter(inst);
  std::size_t resolve_pivots = 0;
  std::size_t cold_pivots = 0;
  double resolve_ms = 0.0;
  double cold_ms = 0.0;
  std::size_t resolves = 0;
  ssco::graph::EdgeId edge = 0;
  using clock = std::chrono::steady_clock;
  auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  for (auto _ : state) {
    state.PauseTiming();
    ssco::platform::PlatformDelta delta;
    edge = (edge + 7) % inst.platform.num_edges();
    delta.cost_changes.push_back(
        {edge, inst.platform.edge_cost(edge) * num::Rational(21, 20)});
    auto mutated = ssco::platform::apply_delta(inst.platform, delta);
    auto changed = inst;
    changed.platform = std::move(mutated.platform);
    state.ResumeTiming();

    auto warm_t0 = clock::now();
    auto warm = core::solve_scatter(changed, {}, &plan);
    resolve_ms += ms_since(warm_t0);
    benchmark::DoNotOptimize(warm.throughput);
    resolve_pivots += warm.lp_pivots;
    ++resolves;

    state.PauseTiming();
    auto cold_t0 = clock::now();
    auto cold = core::solve_scatter(changed);
    cold_ms += ms_since(cold_t0);
    cold_pivots += cold.lp_pivots;
    plan = std::move(warm);
    inst = std::move(changed);
    state.ResumeTiming();
  }
  const double denom = resolves ? static_cast<double>(resolves) : 1.0;
  state.counters["resolve_pivots"] =
      static_cast<double>(resolve_pivots) / denom;
  state.counters["cold_pivots"] = static_cast<double>(cold_pivots) / denom;
  state.counters["resolve_ms"] = resolve_ms / denom;
  state.counters["cold_ms"] = cold_ms / denom;
}
BENCHMARK(BM_ScatterResolve)->Arg(18)->Arg(32)->Arg(48)->Iterations(8)
    ->Unit(benchmark::kMillisecond);

void BM_GossipLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto inst = bench_support::random_gossip_instance(43, n);
  std::size_t pivots = 0;
  std::size_t solves = 0;
  for (auto _ : state) {
    auto flow = core::solve_gossip(inst);
    benchmark::DoNotOptimize(flow.throughput);
    pivots += flow.lp_pivots;
    ++solves;
  }
  state.counters["pivots"] =
      static_cast<double>(pivots) / static_cast<double>(solves ? solves : 1);
  state.counters["pivots_per_sec"] = benchmark::Counter(
      static_cast<double>(pivots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GossipLp)->Arg(6)->Arg(9)->Arg(12)->Arg(16)->Arg(24)->Arg(32)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

// Gather evaluated for column generation (DESIGN.md "Raw-speed LP core"):
// a gather is the gossip LP restricted to a single sink, so its variable
// count is linear in the arc count (one flow variable per commodity per
// arc) — there is no interval-indexed quadratic column space to price
// over, and a restricted master would pay the pricing loop for nothing.
// This benchmark is the measurement behind keeping gather on the dense
// build path.
void BM_GatherLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto platform = bench_support::random_platform(45, n);
  std::vector<graph::NodeId> sources;
  for (std::size_t i = 0; i + 1 < n && sources.size() < 8; ++i) {
    sources.push_back(i);
  }
  std::size_t pivots = 0;
  std::size_t solves = 0;
  for (auto _ : state) {
    auto flow =
        core::solve_gather(platform, sources, n - 1, num::Rational(1));
    benchmark::DoNotOptimize(flow.throughput);
    pivots += flow.lp_pivots;
    ++solves;
  }
  state.counters["pivots"] =
      static_cast<double>(pivots) / static_cast<double>(solves ? solves : 1);
  state.counters["pivots_per_sec"] = benchmark::Counter(
      static_cast<double>(pivots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatherLp)->Arg(6)->Arg(12)->Arg(24)->Arg(32)->Arg(48)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_ReduceLp(benchmark::State& state) {
  const auto participants = static_cast<std::size_t>(state.range(0));
  auto inst =
      bench_support::random_reduce_instance(44, participants + 3, participants);
  std::size_t pivots = 0;
  std::size_t solves = 0;
  for (auto _ : state) {
    auto sol = core::solve_reduce(inst);
    benchmark::DoNotOptimize(sol.throughput);
    pivots += sol.lp_pivots;
    ++solves;
  }
  state.counters["participants"] = static_cast<double>(participants);
  state.counters["pivots"] =
      static_cast<double>(pivots) / static_cast<double>(solves ? solves : 1);
}
BENCHMARK(BM_ReduceLp)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_ReduceLpTiersPaper(benchmark::State& state) {
  auto inst = platform::fig9_tiers();
  for (auto _ : state) {
    auto sol = core::solve_reduce(inst);
    benchmark::DoNotOptimize(sol.throughput);
  }
}
BENCHMARK(BM_ReduceLpTiersPaper)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// --- Ablation: double + exact certificate vs pure exact simplex. ---------

void BM_Ablation_DoublePlusCertificate(benchmark::State& state) {
  auto inst = bench_support::random_scatter_instance(
      45, static_cast<std::size_t>(state.range(0)), 3);
  auto model = core::build_scatter_lp(inst);
  for (auto _ : state) {
    lp::ExactSolver solver;
    auto sol = solver.solve(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_Ablation_DoublePlusCertificate)->Arg(8)->Arg(12)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_Ablation_PureExactSimplex(benchmark::State& state) {
  auto inst = bench_support::random_scatter_instance(
      45, static_cast<std::size_t>(state.range(0)), 3);
  auto model = core::build_scatter_lp(inst);
  for (auto _ : state) {
    auto sol = lp::solve_exact_simplex(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_Ablation_PureExactSimplex)->Arg(8)->Arg(12)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
