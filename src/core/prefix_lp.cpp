#include "core/prefix_lp.h"

#include <stdexcept>
#include <unordered_set>

#include "core/lp_names.h"
#include "graph/paths.h"

namespace ssco::core {

namespace {

using lp::LinearExpr;
using lp::Model;
using lp::Sense;
using lp::VarId;
using platform::ReduceInstance;

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

void check_instance(const ReduceInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.participants.size() < 2) {
    throw std::invalid_argument("prefix: need at least two participants");
  }
  if (instance.message_size.signum() <= 0 ||
      instance.task_work.signum() <= 0) {
    throw std::invalid_argument("prefix: sizes must be positive");
  }
  std::unordered_set<NodeId> seen;
  for (NodeId p : instance.participants) {
    if (p >= graph.num_nodes()) {
      throw std::invalid_argument("prefix: bad participant node");
    }
    if (!seen.insert(p).second) {
      throw std::invalid_argument("prefix: duplicate participant");
    }
  }
  // v[0,i] needs contributions from every j <= i: demand pairwise forward
  // reachability.
  for (std::size_t j = 0; j < instance.participants.size(); ++j) {
    auto reach = graph::reachable_from(graph, instance.participants[j]);
    for (std::size_t i = j + 1; i < instance.participants.size(); ++i) {
      if (!reach[instance.participants[i]]) {
        throw std::invalid_argument(
            "prefix: participant " + std::to_string(i) +
            " unreachable from participant " + std::to_string(j));
      }
    }
  }
}

std::vector<NodeId> resolve_compute_nodes(const ReduceInstance& instance,
                                          const PrefixLpOptions& options) {
  std::vector<NodeId> nodes =
      options.compute_nodes.empty() ? instance.participants
                                    : options.compute_nodes;
  for (NodeId n : nodes) {
    if (n >= instance.platform.num_nodes()) {
      throw std::invalid_argument("prefix: bad compute node");
    }
  }
  return nodes;
}

bool suppressed_send(const ReduceInstance& instance, const IntervalSpace& sp,
                     std::size_t interval_id, const graph::Edge& edge) {
  auto [k, m] = sp.interval(interval_id);
  // Singleton flowing into its owner duplicates the local supply.
  if (k == m && edge.dst == instance.participants[k]) return true;
  // The last prefix v[0,N-1] has a unique consumer; it never usefully
  // leaves that node.
  if (interval_id == sp.full_interval_id() &&
      edge.src == instance.participants.back()) {
    return true;
  }
  return false;
}

}  // namespace

lp::Model build_prefix_lp(const ReduceInstance& instance,
                          const PrefixLpOptions& options) {
  check_instance(instance);
  const auto compute_nodes = resolve_compute_nodes(instance, options);
  const auto& graph = instance.platform.graph();
  const IntervalSpace sp(instance.participants.size());

  Model model;
  std::vector<std::vector<std::size_t>> send_var(
      sp.num_intervals(), std::vector<std::size_t>(graph.num_edges(), kNoVar));
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (suppressed_send(instance, sp, iv, graph.edge(e))) continue;
      send_var[iv][e] = model
                            .add_variable("send_" + edge_tag(instance.platform, e) + "_v" +
                                          std::to_string(k) + "_" +
                                          std::to_string(m))
                            .index;
    }
  }
  std::vector<std::vector<std::size_t>> cons_var(
      graph.num_nodes(), std::vector<std::size_t>(sp.num_tasks(), kNoVar));
  for (NodeId n : compute_nodes) {
    for (std::size_t t = 0; t < sp.num_tasks(); ++t) {
      cons_var[n][t] =
          model.add_variable("cons_" + node_tag(instance.platform, n) + "_t" +
                             std::to_string(t))
              .index;
    }
  }
  VarId tp = model.add_variable("TP");
  model.set_objective(tp, Rational(1));

  // One-port rows.
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    LinearExpr out_busy, in_busy;
    for (EdgeId e : graph.out_edges(n)) {
      Rational unit = instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
        if (send_var[iv][e] != kNoVar) out_busy.add(VarId{send_var[iv][e]}, unit);
      }
    }
    for (EdgeId e : graph.in_edges(n)) {
      Rational unit = instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
        if (send_var[iv][e] != kNoVar) in_busy.add(VarId{send_var[iv][e]}, unit);
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
  // Compute rows.
  for (NodeId n : compute_nodes) {
    Rational unit = instance.task_work / instance.platform.node_speed(n);
    LinearExpr busy;
    for (std::size_t t = 0; t < sp.num_tasks(); ++t) {
      busy.add(VarId{cons_var[n][t]}, unit);
    }
    model.add_constraint(busy, Sense::kLessEqual, Rational(1),
                         "compute_" + node_tag(instance.platform, n));
  }

  // Conservation with per-prefix demands: at (v[0,i], participants[i]) the
  // net balance equals TP (absorption); elsewhere zero; own singletons free.
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance.participants[k] == node;
      if (own_singleton) continue;
      const bool prefix_sink =
          k == 0 && instance.participants[m] == node;

      LinearExpr net;
      bool any = false;
      for (EdgeId e : graph.in_edges(node)) {
        if (send_var[iv][e] != kNoVar) {
          net.add(VarId{send_var[iv][e]}, Rational(1));
          any = true;
        }
      }
      for (EdgeId e : graph.out_edges(node)) {
        if (send_var[iv][e] != kNoVar) {
          net.add(VarId{send_var[iv][e]}, Rational(-1));
          any = true;
        }
      }
      if (!cons_var[node].empty() && cons_var[node][0] != kNoVar) {
        for (std::size_t l = k; l < m; ++l) {
          net.add(VarId{cons_var[node][sp.task_id(k, l, m)]}, Rational(1));
          any = true;
        }
        for (std::size_t x = m + 1; x < sp.n(); ++x) {
          net.add(VarId{cons_var[node][sp.task_id(k, m, x)]}, Rational(-1));
          any = true;
        }
        for (std::size_t x = 0; x < k; ++x) {
          net.add(VarId{cons_var[node][sp.task_id(x, k - 1, m)]},
                  Rational(-1));
          any = true;
        }
      }
      if (prefix_sink) {
        net.add(tp, Rational(-1));
        model.add_constraint(net, Sense::kEqual, Rational(0),
                             "prefix_demand_" + std::to_string(m));
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

/// Chain-of-prefixes seed: v[0,i-1] forwarded from participant i-1 to
/// participant i along shortest paths and merged with v[i,i] on arrival —
/// one complete feasible prefix plan, the analogue of the reduce solver's
/// reduction-tree seeds.
IntervalSeeds chain_seeds(const ReduceInstance& instance) {
  const IntervalSpace sp(instance.participants.size());
  IntervalSeeds seeds;
  for (std::size_t i = 1; i < instance.participants.size(); ++i) {
    const NodeId from = instance.participants[i - 1];
    const NodeId to = instance.participants[i];
    if (from != to) {
      auto tree = graph::dijkstra(instance.platform.graph(),
                                  instance.platform.edge_costs(), from);
      for (EdgeId e : tree.path_to(to, instance.platform.graph())) {
        seeds.send.emplace_back(sp.interval_id(0, i - 1), e);
      }
    }
    seeds.cons.emplace_back(to, sp.task_id(0, i - 1, i));
  }
  return seeds;
}

}  // namespace

ReduceSolution solve_prefix(const ReduceInstance& instance,
                            const PrefixLpOptions& options,
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
      instance, IntervalFlowOracle::Family::kPrefix, compute_nodes,
      options.colgen, solver, context, [&] { return chain_seeds(instance); },
      previous, out);
  if (colgen) {
    sol = std::move(*colgen);
  } else {
    Model model = build_prefix_lp(instance, options);
    sol = solver.solve(model, &context);
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error("prefix LP did not reach optimality: " +
                             lp::to_string(sol.status));
  }
  if (!colgen) {
    out.num_participants = instance.participants.size();
    out.send.assign(sp.num_intervals(),
                    std::vector<Rational>(graph.num_edges(), Rational(0)));
    out.cons.assign(graph.num_nodes(),
                    std::vector<Rational>(sp.num_tasks(), Rational(0)));
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

  if (options.prune_cycles) out.prune_cycles(instance);
  return out;
}

std::string validate_prefix(const platform::ReduceInstance& instance,
                            const ReduceSolution& solution) {
  const IntervalSpace sp(instance.participants.size());
  const auto& graph = instance.platform.graph();

  std::vector<Rational> occ = solution.edge_occupation(instance);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    Rational out_busy(0), in_busy(0);
    for (EdgeId e : graph.out_edges(n)) out_busy += occ[e];
    for (EdgeId e : graph.in_edges(n)) in_busy += occ[e];
    if (out_busy > Rational(1)) return "one-port (send) violated";
    if (in_busy > Rational(1)) return "one-port (recv) violated";
  }
  for (const Rational& load : solution.compute_load(instance)) {
    if (load > Rational(1)) return "compute load exceeds 1";
  }
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    auto [k, m] = sp.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance.participants[k] == node;
      if (own_singleton) continue;
      Rational net = solution.net_balance(instance, iv, node);
      const bool prefix_sink = k == 0 && instance.participants[m] == node;
      if (prefix_sink) {
        if (net != solution.throughput) {
          return "prefix v[0," + std::to_string(m) + "] absorbed at rate " +
                 net.to_string() + " != TP";
        }
      } else if (!net.is_zero()) {
        return "conservation violated for v[" + std::to_string(k) + "," +
               std::to_string(m) + "] at node " + std::to_string(node);
      }
    }
  }
  return {};
}

}  // namespace ssco::core
