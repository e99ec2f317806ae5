#include "core/reduce_lp.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "baselines/reduce_trees.h"
#include "core/lp_names.h"
#include "core/reduction_tree.h"
#include "graph/paths.h"

namespace ssco::core {

namespace {

using lp::LinearExpr;
using lp::Model;
using lp::Sense;
using lp::VarId;
using platform::ReduceInstance;

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

struct ReduceVars {
  /// send_var[interval_id][edge_id]; kNoVar where suppressed.
  std::vector<std::vector<std::size_t>> send_var;
  /// cons_var[node_id][task_id]; kNoVar on non-compute nodes.
  std::vector<std::vector<std::size_t>> cons_var;
  VarId throughput;
};

void check_instance(const ReduceInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.participants.empty()) {
    throw std::invalid_argument("reduce: no participants");
  }
  if (instance.target >= graph.num_nodes()) {
    throw std::invalid_argument("reduce: bad target node");
  }
  if (instance.message_size.signum() <= 0 ||
      instance.task_work.signum() <= 0) {
    throw std::invalid_argument("reduce: sizes must be positive");
  }
  std::unordered_set<NodeId> seen;
  for (NodeId p : instance.participants) {
    if (p >= graph.num_nodes()) {
      throw std::invalid_argument("reduce: bad participant node");
    }
    if (!seen.insert(p).second) {
      throw std::invalid_argument("reduce: duplicate participant");
    }
    auto reachable = graph::reachable_from(graph, p);
    if (!reachable[instance.target]) {
      throw std::invalid_argument("reduce: target unreachable from participant");
    }
  }
}

std::vector<NodeId> resolve_compute_nodes(const ReduceInstance& instance,
                                          const ReduceLpOptions& options) {
  std::vector<NodeId> nodes =
      options.compute_nodes.empty() ? instance.participants
                                    : options.compute_nodes;
  for (NodeId n : nodes) {
    if (n >= instance.platform.num_nodes()) {
      throw std::invalid_argument("reduce: bad compute node");
    }
  }
  return nodes;
}

/// True when the send variable (interval, edge) is provably useless.
bool suppressed_send(const ReduceInstance& instance, const IntervalSpace& sp,
                     std::size_t interval_id, const graph::Edge& edge) {
  auto [k, m] = sp.interval(interval_id);
  // The complete result never usefully leaves the target.
  if (interval_id == sp.full_interval_id() && edge.src == instance.target) {
    return true;
  }
  // A singleton flowing into its own owner duplicates the local supply.
  if (k == m && edge.dst == instance.participants[k]) return true;
  return false;
}

ReduceVars declare_variables(const ReduceInstance& instance,
                             const std::vector<NodeId>& compute_nodes,
                             Model& model) {
  const auto& graph = instance.platform.graph();
  const IntervalSpace sp(instance.participants.size());

  ReduceVars vars;
  vars.send_var.assign(sp.num_intervals(),
                       std::vector<std::size_t>(graph.num_edges(), kNoVar));
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (suppressed_send(instance, sp, iv, graph.edge(e))) continue;
      VarId v = model.add_variable("send_" + edge_tag(instance.platform, e) + "_v" +
                                   std::to_string(k) + "_" +
                                   std::to_string(m));
      vars.send_var[iv][e] = v.index;
    }
  }
  vars.cons_var.assign(graph.num_nodes(),
                       std::vector<std::size_t>(sp.num_tasks(), kNoVar));
  for (NodeId n : compute_nodes) {
    for (std::size_t t = 0; t < sp.num_tasks(); ++t) {
      auto [k, l, m] = sp.task(t);
      VarId v = model.add_variable(
          "cons_" + node_tag(instance.platform, n) + "_T" + std::to_string(k) + "_" +
          std::to_string(l) + "_" + std::to_string(m));
      vars.cons_var[n][t] = v.index;
    }
  }
  vars.throughput = model.add_variable("TP");
  model.set_objective(vars.throughput, Rational(1));
  return vars;
}

}  // namespace

lp::Model build_reduce_lp(const ReduceInstance& instance,
                          const ReduceLpOptions& options) {
  check_instance(instance);
  const auto compute_nodes = resolve_compute_nodes(instance, options);
  const auto& graph = instance.platform.graph();
  const IntervalSpace sp(instance.participants.size());

  Model model;
  ReduceVars vars = declare_variables(instance, compute_nodes, model);

  // One-port rows (eq. 2-3 via eq. 8).
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    LinearExpr out_busy, in_busy;
    for (EdgeId e : graph.out_edges(n)) {
      Rational unit = instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
        if (vars.send_var[iv][e] != kNoVar) {
          out_busy.add(VarId{vars.send_var[iv][e]}, unit);
        }
      }
    }
    for (EdgeId e : graph.in_edges(n)) {
      Rational unit = instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
        if (vars.send_var[iv][e] != kNoVar) {
          in_busy.add(VarId{vars.send_var[iv][e]}, unit);
        }
      }
    }
    if (!out_busy.empty()) {
      model.add_constraint(out_busy, Sense::kLessEqual, Rational(1),
                           "oneport_out_" + node_tag(instance.platform, n));
    }
    if (!in_busy.empty()) {
      model.add_constraint(in_busy, Sense::kLessEqual, Rational(1),
                           "oneport_in_" + node_tag(instance.platform, n));
    }
  }

  // Compute rows (eq. 7 via eq. 9): alpha(P_i) <= 1.
  for (NodeId n : compute_nodes) {
    Rational unit = instance.task_work / instance.platform.node_speed(n);
    LinearExpr busy;
    for (std::size_t t = 0; t < sp.num_tasks(); ++t) {
      busy.add(VarId{vars.cons_var[n][t]}, unit);
    }
    model.add_constraint(busy, Sense::kLessEqual, Rational(1),
                         "compute_" + node_tag(instance.platform, n));
  }

  // Conservation law (eq. 10) + throughput row (eq. 11).
  const std::size_t full = sp.full_interval_id();
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance.participants[k] == node;
      if (own_singleton) continue;  // unlimited local supply
      const bool final_at_target = iv == full && node == instance.target;

      LinearExpr net;
      bool any = false;
      for (EdgeId e : graph.in_edges(node)) {
        if (vars.send_var[iv][e] != kNoVar) {
          net.add(VarId{vars.send_var[iv][e]}, Rational(1));
          any = true;
        }
      }
      for (EdgeId e : graph.out_edges(node)) {
        if (vars.send_var[iv][e] != kNoVar) {
          net.add(VarId{vars.send_var[iv][e]}, Rational(-1));
          any = true;
        }
      }
      if (!vars.cons_var[node].empty() &&
          vars.cons_var[node][0] != kNoVar) {
        // Produced locally by T(k,l,m) for k <= l < m.
        for (std::size_t l = k; l < m; ++l) {
          net.add(VarId{vars.cons_var[node][sp.task_id(k, l, m)]},
                  Rational(1));
          any = true;
        }
        // Consumed locally as the left input of T(k,m,x), x > m, or the
        // right input of T(x,k-1,m), x < k.
        for (std::size_t x = m + 1; x < sp.n(); ++x) {
          net.add(VarId{vars.cons_var[node][sp.task_id(k, m, x)]},
                  Rational(-1));
          any = true;
        }
        for (std::size_t x = 0; x < k; ++x) {
          net.add(VarId{vars.cons_var[node][sp.task_id(x, k - 1, m)]},
                  Rational(-1));
          any = true;
        }
      }
      if (final_at_target) {
        net.add(vars.throughput, Rational(-1));
        model.add_constraint(net, Sense::kEqual, Rational(0), "throughput");
      } else if (any) {
        model.add_constraint(net, Sense::kEqual, Rational(0),
                             "conserve_v" + std::to_string(k) + "_" +
                                 std::to_string(m) + "_n" +
                                 node_tag(instance.platform, node));
      }
    }
  }
  return model;
}

namespace {

/// Heuristic master seeds: every transfer and merge of the three classic
/// reduction trees (paper Sec. 5's conventional schemes) — a complete
/// feasible plan each, so the first restricted master already sustains a
/// positive throughput.
IntervalSeeds tree_seeds(const ReduceInstance& instance) {
  IntervalSeeds seeds;
  for (const ReductionTree& tree :
       {baselines::flat_reduce_tree(instance),
        baselines::chain_reduce_tree(instance),
        baselines::binomial_reduce_tree(instance)}) {
    for (const TreeTask& task : tree.tasks) {
      if (task.kind == TreeTask::Kind::kTransfer) {
        seeds.send.emplace_back(task.interval, task.edge);
      } else {
        seeds.cons.emplace_back(task.node, task.task);
      }
    }
  }
  return seeds;
}

}  // namespace

ReduceSolution solve_reduce(const ReduceInstance& instance,
                            const ReduceLpOptions& options,
                            const ReduceSolution* previous) {
  check_instance(instance);
  const auto compute_nodes = resolve_compute_nodes(instance, options);
  const auto& graph = instance.platform.graph();
  const IntervalSpace sp(instance.participants.size());

  lp::ExactSolver solver(options.solver);
  lp::SolveContext context;
  if (previous) context.warm = previous->lp_basis;

  lp::ExactSolution sol;
  ReduceSolution out;
  auto colgen = IntervalFlowOracle::try_solve(
      instance, IntervalFlowOracle::Family::kReduce, compute_nodes,
      options.colgen, solver, context, [&] { return tree_seeds(instance); },
      previous, out);
  if (colgen) {
    sol = std::move(*colgen);
  } else {
    Model model = build_reduce_lp(instance, options);
    sol = solver.solve(model, &context);
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error("reduce LP did not reach optimality: " +
                             lp::to_string(sol.status));
  }
  if (!colgen) {
    out.num_participants = instance.participants.size();
    out.send.assign(sp.num_intervals(),
                    std::vector<Rational>(graph.num_edges(), Rational(0)));
    out.cons.assign(graph.num_nodes(),
                    std::vector<Rational>(sp.num_tasks(), Rational(0)));
    // Same declaration order as declare_variables.
    std::size_t next = 0;
    for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        if (suppressed_send(instance, sp, iv, graph.edge(e))) continue;
        out.send[iv][e] = sol.primal[next++];
      }
    }
    for (NodeId n : compute_nodes) {
      for (std::size_t t = 0; t < sp.num_tasks(); ++t) {
        out.cons[n][t] = sol.primal[next++];
      }
    }
    out.throughput = sol.primal[next];
  }

  out.certified = sol.certified;
  out.lp_method = sol.method;
  out.lp_pivots = sol.float_iterations + sol.exact_iterations;
  out.lp_basis = std::move(context.warm);
  out.warm_started = sol.warm_started;
  out.lp_colgen_rounds = sol.colgen_rounds;
  out.lp_columns_generated = sol.colgen_columns_generated;
  out.lp_columns_total = sol.colgen_columns_total;
  out.lp_rows_active = sol.colgen_rows_active;
  out.lp_rows_total = sol.colgen_rows_total;
  out.lp_stab_rounds = sol.colgen_stab_rounds;
  out.lp_phase_times = sol.phase_times;

  if (options.prune_cycles) out.prune_cycles(instance);
  return out;
}

}  // namespace ssco::core
