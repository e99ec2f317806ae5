#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "baselines/reduce_trees.h"
#include "baselines/scatter_trees.h"
#include "core/intervals.h"

namespace perfbench {

namespace {

using ssco::graph::EdgeId;
using ssco::graph::NodeId;
using ssco::platform::Platform;

void fail(Failures& out, const std::string& name) {
  if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
}

Rational min_cost(const Platform& pf, std::span<const EdgeId> edges) {
  Rational best = pf.edge_cost(edges.front());
  for (EdgeId e : edges) best = std::min(best, pf.edge_cost(e));
  return best;
}

/// Per-edge busy time per time unit, summed onto out- and in-ports.
void check_port_busy(const Platform& pf, const std::vector<Rational>& busy,
                     Failures& out) {
  std::vector<Rational> out_port(pf.num_nodes()), in_port(pf.num_nodes());
  for (EdgeId e = 0; e < pf.num_edges(); ++e) {
    if (busy[e].is_negative()) fail(out, "negative_flow");
    out_port[pf.graph().edge(e).src] += busy[e];
    in_port[pf.graph().edge(e).dst] += busy[e];
  }
  for (NodeId v = 0; v < pf.num_nodes(); ++v) {
    if (Rational(1) < out_port[v] || Rational(1) < in_port[v]) {
      fail(out, "port_busy");
    }
  }
}

void check_bounds(const Rational& tp, const Reference& ref, Failures& out) {
  if (tp < ref.baseline_tp) fail(out, "tp_below_baseline");
  if (ref.cut_tp < tp) fail(out, "tp_above_cut");
}

using Interval = std::pair<Rational, Rational>;

void check_disjoint(std::map<std::size_t, std::vector<Interval>>& ports,
                    Failures& out) {
  for (auto& [port, spans] : ports) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      if (spans[i + 1].first < spans[i].second) fail(out, "schedule_overlap");
    }
  }
}

/// Durations, [0, period] containment and one-port disjointness of every
/// activity. `work` is the reduce task size (ignored for flow schedules).
void check_schedule(const Platform& pf, const ssco::core::PeriodicSchedule& s,
                    const Rational& size, const Rational& work,
                    Failures& out) {
  if (s.period.signum() <= 0) {
    fail(out, "schedule_period");
    return;
  }
  std::map<std::size_t, std::vector<Interval>> out_port, in_port, cpu;
  for (const auto& c : s.comms) {
    if (c.start.is_negative() || s.period < c.end || !(c.start < c.end)) {
      fail(out, "schedule_window");
    }
    if (c.end - c.start != c.messages * size * pf.edge_cost(c.edge)) {
      fail(out, "schedule_duration");
    }
    out_port[pf.graph().edge(c.edge).src].emplace_back(c.start, c.end);
    in_port[pf.graph().edge(c.edge).dst].emplace_back(c.start, c.end);
  }
  for (const auto& c : s.comps) {
    if (c.start.is_negative() || s.period < c.end || !(c.start < c.end)) {
      fail(out, "schedule_window");
    }
    if (c.end - c.start != c.count * work / pf.node_speed(c.node)) {
      fail(out, "schedule_duration");
    }
    cpu[c.node].emplace_back(c.start, c.end);
  }
  check_disjoint(out_port, out);
  check_disjoint(in_port, out);
  check_disjoint(cpu, out);
}

}  // namespace

Reference scatter_reference(const ssco::platform::ScatterInstance& inst) {
  const Platform& pf = inst.platform;
  Reference ref;
  ref.baseline_tp =
      std::max(ssco::baselines::scatter_greedy_congestion(inst).throughput,
               ssco::baselines::scatter_shortest_path(inst).throughput);
  // The source sends one message per target per operation; each target
  // receives at least its own.
  ref.cut_tp = (Rational(static_cast<std::int64_t>(inst.targets.size())) *
                inst.message_size *
                min_cost(pf, pf.graph().out_edges(inst.source)))
                   .reciprocal();
  for (NodeId t : inst.targets) {
    ref.cut_tp = std::min(
        ref.cut_tp,
        (inst.message_size * min_cost(pf, pf.graph().in_edges(t))).reciprocal());
  }
  return ref;
}

Reference reduce_reference(const ssco::platform::ReduceInstance& inst) {
  namespace bl = ssco::baselines;
  const Platform& pf = inst.platform;
  Reference ref;
  ref.baseline_tp = std::max(
      {bl::single_tree_throughput(inst, bl::flat_reduce_tree(inst)),
       bl::single_tree_throughput(inst, bl::chain_reduce_tree(inst)),
       bl::single_tree_throughput(inst, bl::binomial_reduce_tree(inst))});
  // Each participant other than the target ships at least one partial value
  // per operation and the target receives at least one; the N-1 merges of
  // an operation share the participants' CPUs.
  const std::size_t n = inst.participants.size();
  Rational speed_sum;
  ref.cut_tp =
      (inst.message_size * min_cost(pf, pf.graph().in_edges(inst.target)))
          .reciprocal();
  for (NodeId p : inst.participants) {
    speed_sum += pf.node_speed(p);
    if (p == inst.target) continue;
    ref.cut_tp = std::min(
        ref.cut_tp,
        (inst.message_size * min_cost(pf, pf.graph().out_edges(p))).reciprocal());
  }
  ref.cut_tp = std::min(
      ref.cut_tp,
      speed_sum / (Rational(static_cast<std::int64_t>(n - 1)) * inst.task_work));
  return ref;
}

Failures check_scatter_plan(const ssco::platform::ScatterInstance& inst,
                            const ssco::core::FlowPlan& plan,
                            const Reference& ref) {
  Failures out;
  const Platform& pf = inst.platform;
  const auto& g = pf.graph();
  const Rational& tp = plan.flow.throughput;
  check_bounds(tp, ref, out);
  if (plan.flow.commodities.size() != inst.targets.size()) {
    fail(out, "commodities");
    return out;
  }
  std::vector<Rational> busy(pf.num_edges());
  for (std::size_t k = 0; k < inst.targets.size(); ++k) {
    const auto& c = plan.flow.commodities[k];
    std::vector<Rational> net(pf.num_nodes());
    for (EdgeId e = 0; e < pf.num_edges(); ++e) {
      const Rational& f = c.edge_flow[e];
      if (f.is_zero()) continue;
      busy[e] += f * inst.message_size * pf.edge_cost(e);
      net[g.edge(e).dst] += f;
      net[g.edge(e).src] -= f;
    }
    for (NodeId v = 0; v < pf.num_nodes(); ++v) {
      const Rational want = v == inst.targets[k]  ? tp
                            : v == inst.source   ? -tp
                                                 : Rational(0);
      if (net[v] != want) fail(out, "flow_conservation");
    }
  }
  check_port_busy(pf, busy, out);

  const auto& s = plan.schedule;
  check_schedule(pf, s, inst.message_size, Rational(1), out);
  std::vector<Rational> delivered(inst.targets.size());
  for (const auto& c : s.comms) {
    if (c.type >= inst.targets.size()) {
      fail(out, "schedule_type");
      continue;
    }
    if (g.edge(c.edge).dst == inst.targets[c.type]) delivered[c.type] += c.messages;
    if (g.edge(c.edge).src == inst.targets[c.type]) delivered[c.type] -= c.messages;
  }
  for (const Rational& d : delivered) {
    if (d != tp * s.period) fail(out, "schedule_delivery");
  }
  return out;
}

Failures check_reduce_plan(const ssco::platform::ReduceInstance& inst,
                           const ssco::core::ReducePlan& plan,
                           const Reference& ref) {
  Failures out;
  const Platform& pf = inst.platform;
  const auto& g = pf.graph();
  const auto& sol = plan.solution;
  const Rational& tp = sol.throughput;
  check_bounds(tp, ref, out);
  const std::size_t n = inst.participants.size();
  const ssco::core::IntervalSpace space(n);
  const std::size_t full = space.interval_id(0, n - 1);
  if (sol.send.size() != space.num_intervals()) {
    fail(out, "solution_shape");
    return out;
  }

  std::vector<Rational> busy(pf.num_edges());
  Rational at_target;
  for (std::size_t i = 0; i < sol.send.size(); ++i) {
    for (EdgeId e = 0; e < sol.send[i].size(); ++e) {
      const Rational& f = sol.send[i][e];
      if (f.is_zero()) continue;
      busy[e] += f * inst.message_size * pf.edge_cost(e);
      if (i == full && g.edge(e).dst == inst.target) at_target += f;
      if (i == full && g.edge(e).src == inst.target) at_target -= f;
    }
  }
  check_port_busy(pf, busy, out);
  for (NodeId v = 0; v < sol.cons.size(); ++v) {
    Rational load;
    for (std::size_t t = 0; t < sol.cons[v].size(); ++t) {
      const Rational& c = sol.cons[v][t];
      if (c.is_zero()) continue;
      if (c.is_negative()) fail(out, "negative_flow");
      load += c * inst.task_work / pf.node_speed(v);
      const auto [k, l, m] = space.task(t);
      if (v == inst.target && k == 0 && m == n - 1) at_target += c;
    }
    if (Rational(1) < load) fail(out, "cpu_busy");
  }
  if (at_target != tp) fail(out, "reduce_delivery");

  const auto& s = plan.schedule;
  check_schedule(pf, s, inst.message_size, inst.task_work, out);
  Rational delivered;
  for (const auto& c : s.comms) {
    if (c.type != full) continue;
    if (g.edge(c.edge).dst == inst.target) delivered += c.messages;
    if (g.edge(c.edge).src == inst.target) delivered -= c.messages;
  }
  for (const auto& c : s.comps) {
    const auto [k, l, m] = space.task(c.task);
    if (c.node == inst.target && k == 0 && m == n - 1) delivered += c.count;
  }
  if (delivered != tp * s.period) fail(out, "schedule_delivery");
  return out;
}

Failures check_warm_equals_cold(const Rational& warm, const Rational& cold) {
  Failures out;
  if (warm != cold) fail(out, "warm_differs_from_cold");
  return out;
}

Failures check_exec_report(const ssco::exec::ExecReport& report,
                           const Rational& tp, const Rational& period,
                           bool exact_window) {
  Failures out;
  if (!report.fault.ok()) {
    fail(out, std::string("exec_fault:") +
                  ssco::exec::fault_code_name(report.fault.code));
  }
  if (report.delivery_errors != 0) fail(out, "delivery_errors");
  if (report.oneport_violations != 0) fail(out, "oneport_violations");
  // certified_ops_per_sec x window = TP x the window in model units; one
  // period's operations of slack covers the pipeline phase at its edges.
  // With drifted links the plan's bound no longer applies either way.
  if (!exact_window) return out;
  const double expected =
      report.certified_ops_per_sec * report.elapsed_seconds;
  const double slack = (tp * period).to_double() * (1.0 + 1e-9) + 1e-9;
  const double ops = static_cast<double>(report.operations);
  if (ops > expected + slack) fail(out, "ops_above_bound");
  if (ops < expected - slack) fail(out, "ops_below_bound");
  return out;
}

Failures check_inferred_drift(const Platform& platform,
                              const ssco::exec::ExecReport& report,
                              const std::vector<double>& scale,
                              double threshold,
                              const ssco::platform::PlatformDelta& drift) {
  Failures out;
  std::vector<const Rational*> corrected(platform.num_edges(), nullptr);
  for (const auto& c : drift.cost_changes) {
    if (c.edge >= platform.num_edges()) {
      fail(out, "drift_edge");
      continue;
    }
    corrected[c.edge] = &c.cost;
  }
  for (EdgeId e = 0; e < platform.num_edges(); ++e) {
    const double s = e < scale.size() ? scale[e] : 1.0;
    const bool moved = e < report.edges.size() && report.edges[e].wire_bytes > 0;
    const bool expect = moved && std::abs(1.0 / s - 1.0) > threshold;
    if (!expect) {
      if (corrected[e] != nullptr) fail(out, "drift_spurious");
      continue;
    }
    if (corrected[e] == nullptr) {
      fail(out, "drift_missed");
      continue;
    }
    const double want = platform.edge_cost(e).to_double() / s;
    if (std::abs(corrected[e]->to_double() - want) > 1.0 / 4096 + 1e-9) {
      fail(out, "drift_ratio");
    }
  }
  return out;
}

namespace {

bool caught(const Failures& f, const char* name) {
  return std::find(f.begin(), f.end(), name) != f.end();
}

/// Smallest instances that still route over relays and merge on several
/// nodes, built by hand so the self-test does not depend on a seed.
ssco::platform::ScatterInstance tiny_scatter() {
  ssco::platform::PlatformBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node("t" + std::to_string(i));
  b.add_link(0, 1, Rational(1, 2));
  b.add_link(0, 2, Rational(1));
  b.add_link(1, 3, Rational(1, 3));
  b.add_link(2, 3, Rational(1, 2));
  b.add_link(1, 4, Rational(2, 3));
  b.add_link(2, 4, Rational(1, 3));
  ssco::platform::ScatterInstance inst;
  inst.platform = b.build();
  inst.source = 0;
  inst.targets = {3, 4};
  return inst;
}

ssco::platform::ReduceInstance tiny_reduce() {
  ssco::platform::PlatformBuilder b;
  for (int i = 0; i < 4; ++i) b.add_node("r" + std::to_string(i), Rational(i + 1));
  b.add_link(0, 1, Rational(1, 2));
  b.add_link(1, 2, Rational(1));
  b.add_link(2, 3, Rational(1, 3));
  b.add_link(0, 3, Rational(1, 2));
  ssco::platform::ReduceInstance inst;
  inst.platform = b.build();
  inst.participants = {0, 1, 2, 3};
  inst.target = 3;
  return inst;
}

}  // namespace

Failures self_test() {
  Failures missed;
  auto expect = [&](bool was_caught, const char* what) {
    if (!was_caught) missed.push_back(what);
  };

  const auto sc = tiny_scatter();
  const auto sref = scatter_reference(sc);
  const auto splan = ssco::core::optimize_scatter(sc);
  expect(check_scatter_plan(sc, splan, sref).empty(), "scatter_plan_passes");
  {
    auto bad = splan;
    bad.flow.throughput += Rational(1, 1000);
    const auto f = check_scatter_plan(sc, bad, sref);
    expect(caught(f, "flow_conservation") && caught(f, "schedule_delivery"),
           "tp_raised");
    auto hi = sref;
    hi.cut_tp = splan.flow.throughput - Rational(1, 1000);
    expect(caught(check_scatter_plan(sc, splan, hi), "tp_above_cut"),
           "tp_above_cut");
    auto lo = sref;
    lo.baseline_tp = splan.flow.throughput + Rational(1, 1000);
    expect(caught(check_scatter_plan(sc, splan, lo), "tp_below_baseline"),
           "tp_below_baseline");
  }
  {
    // Double the flow on the edge that loads the busiest port the most.
    auto bad = splan;
    EdgeId worst = 0;
    Rational worst_busy;
    for (auto& c : bad.flow.commodities) {
      for (EdgeId e = 0; e < c.edge_flow.size(); ++e) {
        const Rational b = c.edge_flow[e] * sc.platform.edge_cost(e);
        if (worst_busy < b) worst_busy = b, worst = e;
      }
    }
    for (auto& c : bad.flow.commodities) c.edge_flow[worst] *= Rational(2);
    const auto f = check_scatter_plan(sc, bad, sref);
    expect(caught(f, "flow_conservation"), "edge_flow_doubled");
    // Overload that port outright: its busy time becomes > 1.
    auto over = splan;
    const NodeId src = sc.platform.graph().edge(worst).src;
    for (auto& c : over.flow.commodities) {
      for (EdgeId e : sc.platform.graph().out_edges(src)) c.edge_flow[e] *= Rational(3);
    }
    expect(caught(check_scatter_plan(sc, over, sref), "port_busy"),
           "port_overload");
  }
  {
    // Two activities on one out-port made to overlap.
    auto bad = splan;
    const auto& g = sc.platform.graph();
    bool done = false;
    for (std::size_t i = 0; i < bad.schedule.comms.size() && !done; ++i) {
      for (std::size_t j = 0; j < bad.schedule.comms.size() && !done; ++j) {
        auto& a = bad.schedule.comms[i];
        auto& b = bad.schedule.comms[j];
        if (i == j || g.edge(a.edge).src != g.edge(b.edge).src) continue;
        const Rational len = b.end - b.start;
        b.start = a.start;
        b.end = a.start + len;
        done = true;
      }
    }
    expect(done && caught(check_scatter_plan(sc, bad, sref), "schedule_overlap"),
           "overlapping_out_port");
  }

  const auto rd = tiny_reduce();
  const auto rref = reduce_reference(rd);
  const auto rplan = ssco::core::optimize_reduce(rd);
  expect(check_reduce_plan(rd, rplan, rref).empty(), "reduce_plan_passes");
  {
    auto bad = rplan;
    bad.solution.throughput += Rational(1, 1000);
    const auto f = check_reduce_plan(rd, bad, rref);
    expect(caught(f, "reduce_delivery") && caught(f, "schedule_delivery"),
           "reduce_tp_raised");
    auto over = rplan;
    for (auto& row : over.solution.cons) {
      for (auto& c : row) c *= Rational(1000);
    }
    expect(caught(check_reduce_plan(rd, over, rref), "cpu_busy"),
           "reduce_cpu_overload");
  }

  expect(caught(check_warm_equals_cold(Rational(1, 2), Rational(1, 2) + Rational(1, 1000)),
                "warm_differs_from_cold"),
         "warm_vs_cold");

  ssco::exec::ExecReport r;
  r.elapsed_seconds = 1.0;
  r.certified_ops_per_sec = 100.0;
  r.operations = 100;
  expect(check_exec_report(r, Rational(1), Rational(1), true).empty(),
         "exec_report_passes");
  r.delivery_errors = 1;
  expect(caught(check_exec_report(r, Rational(1), Rational(1), true),
                "delivery_errors"),
         "exec_delivery_error");
  r.delivery_errors = 0;
  r.operations = 102;
  expect(caught(check_exec_report(r, Rational(1), Rational(1), true),
                "ops_above_bound"),
         "exec_ops_high");
  r.operations = 98;
  expect(caught(check_exec_report(r, Rational(1), Rational(1), true),
                "ops_below_bound"),
         "exec_ops_low");

  // Drift inference: one edge slowed to half rate; a correction that is off
  // by two quantization steps must be rejected, as must a missing one.
  r.edges.assign(sc.platform.num_edges(), {});
  r.edges[0].wire_bytes = 1;
  std::vector<double> scale(sc.platform.num_edges(), 1.0);
  scale[0] = 0.5;
  ssco::platform::PlatformDelta d;
  d.cost_changes.push_back({0, sc.platform.edge_cost(0) * Rational(2)});
  expect(check_inferred_drift(sc.platform, r, scale, 0.15, d).empty(),
         "drift_passes");
  d.cost_changes[0].cost += Rational(2, 4096);
  expect(caught(check_inferred_drift(sc.platform, r, scale, 0.15, d),
                "drift_ratio"),
         "drift_ratio_off");
  expect(caught(check_inferred_drift(sc.platform, r, scale, 0.15, {}),
                "drift_missed"),
         "drift_missed");
  return missed;
}

}  // namespace perfbench
