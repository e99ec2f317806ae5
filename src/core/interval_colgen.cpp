#include "core/interval_colgen.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/lp_names.h"

namespace ssco::core {

namespace {

using lp::GeneratedColumn;
using lp::LinearExpr;
using lp::Model;
using lp::RowId;
using lp::Sense;

// Identity tags: kind in the top bits, the two coordinates below. Node,
// edge, interval and task counts all fit 30 bits with room to spare.
constexpr std::uint64_t kSendTag = 0;
constexpr std::uint64_t kConsTag = 1;
constexpr std::uint64_t kTpTag = 2;

std::uint64_t make_tag(std::uint64_t kind, std::uint64_t a, std::uint64_t b) {
  return (kind << 62) | (a << 31) | b;
}
std::uint64_t tag_kind(std::uint64_t tag) { return tag >> 62; }
std::uint64_t tag_a(std::uint64_t tag) { return (tag >> 31) & 0x7fffffffu; }
std::uint64_t tag_b(std::uint64_t tag) { return tag & 0x7fffffffu; }

bool family_suppressed(const platform::ReduceInstance& instance,
                       IntervalFlowOracle::Family family,
                       const IntervalSpace& sp, std::size_t interval_id,
                       const graph::Edge& edge) {
  auto [k, m] = sp.interval(interval_id);
  // A singleton flowing into its own owner duplicates the local supply.
  if (k == m && edge.dst == instance.participants[k]) return true;
  if (interval_id == sp.full_interval_id()) {
    // The complete result never usefully leaves its unique consumer.
    const NodeId consumer = family == IntervalFlowOracle::Family::kReduce
                                ? instance.target
                                : instance.participants.back();
    if (edge.src == consumer) return true;
  }
  return false;
}

}  // namespace

IntervalFlowOracle::IntervalFlowOracle(
    const platform::ReduceInstance& instance, Family family,
    std::vector<NodeId> compute_nodes)
    : instance_(instance),
      family_(family),
      sp_(instance.participants.size()),
      compute_nodes_(std::move(compute_nodes)) {
  const auto& graph = instance_.platform.graph();
  is_compute_.assign(graph.num_nodes(), 0);
  for (NodeId n : compute_nodes_) is_compute_[n] = 1;

  edge_unit_.resize(graph.num_edges());
  edge_unit_d_.resize(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edge_unit_[e] = instance_.message_size * instance_.platform.edge_cost(e);
    edge_unit_d_[e] = edge_unit_[e].to_double();
  }
  node_unit_.assign(graph.num_nodes(), Rational(0));
  node_unit_d_.assign(graph.num_nodes(), 0.0);
  for (NodeId n : compute_nodes_) {
    node_unit_[n] = instance_.task_work / instance_.platform.node_speed(n);
    node_unit_d_[n] = node_unit_[n].to_double();
  }

  // Presence tables: suppression is decided once, here; everything absent
  // until build_master seeds it or the driver reports an append.
  send_var_.assign(sp_.num_intervals(),
                   std::vector<std::size_t>(graph.num_edges(), kAbsent));
  std::size_t sends = 0;
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (suppressed(iv, graph.edge(e))) {
        send_var_[iv][e] = kSuppressed;
      } else {
        ++sends;
      }
    }
  }
  cons_var_.assign(graph.num_nodes(), {});
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    cons_var_[n].assign(sp_.num_tasks(),
                        is_compute_[n] ? kAbsent : kSuppressed);
  }
  total_columns_ = sends + compute_nodes_.size() * sp_.num_tasks() + 1;
}

bool IntervalFlowOracle::suppressed(std::size_t interval_id,
                                    const graph::Edge& edge) const {
  return family_suppressed(instance_, family_, sp_, interval_id, edge);
}

std::size_t IntervalFlowOracle::full_model_columns(
    const platform::ReduceInstance& instance, Family family,
    std::size_t num_compute_nodes) {
  const IntervalSpace sp(instance.participants.size());
  const auto& graph = instance.platform.graph();
  std::size_t sends = 0;
  for (std::size_t iv = 0; iv < sp.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (!family_suppressed(instance, family, sp, iv, graph.edge(e))) {
        ++sends;
      }
    }
  }
  return sends + num_compute_nodes * sp.num_tasks() + 1;
}

lp::Model IntervalFlowOracle::build_master(
    std::vector<std::pair<std::size_t, EdgeId>> send_seed,
    std::vector<std::pair<NodeId, std::size_t>> cons_seed) {
  const auto& graph = instance_.platform.graph();
  Model model;

  // --- Row skeleton: the COMPLETE row set of the full model, ENUMERATED in
  // exactly the dense builder's order and names but not materialized — rows
  // get full row ids into row_specs_, and only the ones touched by seed
  // columns below land in the master (the colgen driver activates the rest
  // lazily; see the header comment). Emission follows the FULL variable
  // pattern — a row whose support is entirely absent from the master must
  // still be priceable, or the oracle's dual lookups would misindex.
  auto add_row = [&](Sense sense, Rational rhs, std::string name) {
    row_specs_.push_back({std::move(name), sense, std::move(rhs)});
    return row_specs_.size() - 1;
  };
  op_out_row_.assign(graph.num_nodes(), kNoRow);
  op_in_row_.assign(graph.num_nodes(), kNoRow);
  compute_row_.assign(graph.num_nodes(), kNoRow);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    auto port_any = [&](auto&& edges) {
      for (EdgeId e : edges) {
        for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
          if (send_var_[iv][e] != kSuppressed) return true;
        }
      }
      return false;
    };
    if (port_any(graph.out_edges(n))) {
      op_out_row_[n] =
          add_row(Sense::kLessEqual, Rational(1),
                  "oneport_out_" + node_tag(instance_.platform, n));
    }
    if (port_any(graph.in_edges(n))) {
      op_in_row_[n] = add_row(Sense::kLessEqual, Rational(1),
                              "oneport_in_" + node_tag(instance_.platform, n));
    }
  }
  for (NodeId n : compute_nodes_) {
    compute_row_[n] = add_row(Sense::kLessEqual, Rational(1),
                              "compute_" + node_tag(instance_.platform, n));
  }
  conserve_row_.assign(sp_.num_intervals(),
                       std::vector<std::size_t>(graph.num_nodes(), kNoRow));
  std::vector<std::size_t> sink_rows;
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    auto [k, m] = sp_.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance_.participants[k] == node;
      if (own_singleton) continue;  // unlimited local supply
      const bool sink = family_ == Family::kReduce
                            ? (iv == sp_.full_interval_id() &&
                               node == instance_.target)
                            : (k == 0 && instance_.participants[m] == node);
      bool any = false;
      if (!sink) {
        for (EdgeId e : graph.in_edges(node)) {
          if (send_var_[iv][e] != kSuppressed) {
            any = true;
            break;
          }
        }
        if (!any) {
          for (EdgeId e : graph.out_edges(node)) {
            if (send_var_[iv][e] != kSuppressed) {
              any = true;
              break;
            }
          }
        }
        if (!any && is_compute_[node] && sp_.num_tasks() > 0) {
          any = m > k || m + 1 < sp_.n() || k > 0;
        }
        if (!any) continue;
      }
      std::string name;
      if (!sink) {
        name = "conserve_v" + std::to_string(k) + "_" + std::to_string(m) +
               "_n" + node_tag(instance_.platform, node);
      } else if (family_ == Family::kReduce) {
        name = "throughput";
      } else {
        name = "prefix_demand_" + std::to_string(m);
      }
      conserve_row_[iv][node] =
          add_row(Sense::kEqual, Rational(0), std::move(name));
      if (sink) sink_rows.push_back(conserve_row_[iv][node]);
    }
  }

  // --- Seed columns, deterministic order; then TP. ------------------------
  std::sort(send_seed.begin(), send_seed.end());
  send_seed.erase(std::unique(send_seed.begin(), send_seed.end()),
                  send_seed.end());
  std::sort(cons_seed.begin(), cons_seed.end());
  cons_seed.erase(std::unique(cons_seed.begin(), cons_seed.end()),
                  cons_seed.end());

  // Seed columns carry FULL row ids; the master row for a full row is
  // created on first touch (first-touch order of the deterministic seed
  // sequence — the same activation discipline the driver follows later).
  std::vector<std::size_t> full_to_master(row_specs_.size(), kNoRow);
  auto append = [&](const GeneratedColumn& gc) {
    std::vector<std::pair<RowId, Rational>> rows;
    rows.reserve(gc.entries.size());
    for (const auto& [row, coeff] : gc.entries) {
      if (full_to_master[row] == kNoRow) {
        const lp::GeneratedRow& spec = row_specs_[row];
        full_to_master[row] =
            model.add_constraint(LinearExpr{}, spec.sense, spec.rhs, spec.name)
                .index;
        master_row_origins_.push_back(row);
      }
      rows.emplace_back(RowId{full_to_master[row]}, coeff);
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first.index < b.first.index;
    });
    lp::VarId v = model.add_column(gc.name, gc.objective, rows);
    added(gc, v);
  };

  for (const auto& [iv, e] : send_seed) {
    if (iv >= sp_.num_intervals() || e >= graph.num_edges()) {
      throw std::out_of_range("interval colgen: bad send seed");
    }
    if (send_var_[iv][e] != kAbsent) continue;  // suppressed or duplicate
    append(make_send(iv, e));
  }
  for (const auto& [node, task] : cons_seed) {
    if (node >= graph.num_nodes() || task >= sp_.num_tasks()) {
      throw std::out_of_range("interval colgen: bad cons seed");
    }
    if (cons_var_[node][task] != kAbsent) continue;
    append(make_cons(node, task));
  }

  GeneratedColumn tp;
  tp.name = "TP";
  tp.objective = Rational(1);
  tp.tag = make_tag(kTpTag, 0, 0);
  for (std::size_t row : sink_rows) {
    tp.entries.emplace_back(row, Rational(-1));
  }
  append(tp);
  return model;
}

std::vector<std::pair<std::size_t, Rational>>
IntervalFlowOracle::send_entries(std::size_t interval_id, EdgeId e) const {
  const auto& edge = instance_.platform.graph().edge(e);
  std::vector<std::pair<std::size_t, Rational>> entries;
  entries.reserve(4);
  if (op_out_row_[edge.src] != kNoRow) {
    entries.emplace_back(op_out_row_[edge.src], edge_unit_[e]);
  }
  if (op_in_row_[edge.dst] != kNoRow) {
    entries.emplace_back(op_in_row_[edge.dst], edge_unit_[e]);
  }
  if (conserve_row_[interval_id][edge.dst] != kNoRow) {
    entries.emplace_back(conserve_row_[interval_id][edge.dst], Rational(1));
  }
  if (conserve_row_[interval_id][edge.src] != kNoRow) {
    entries.emplace_back(conserve_row_[interval_id][edge.src], Rational(-1));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::vector<std::pair<std::size_t, Rational>>
IntervalFlowOracle::cons_entries(NodeId node, std::size_t task) const {
  auto [k, l, m] = sp_.task(task);
  std::vector<std::pair<std::size_t, Rational>> entries;
  entries.reserve(4);
  entries.emplace_back(compute_row_[node], node_unit_[node]);
  if (conserve_row_[sp_.interval_id(k, m)][node] != kNoRow) {
    entries.emplace_back(conserve_row_[sp_.interval_id(k, m)][node],
                         Rational(1));
  }
  if (conserve_row_[sp_.interval_id(k, l)][node] != kNoRow) {
    entries.emplace_back(conserve_row_[sp_.interval_id(k, l)][node],
                         Rational(-1));
  }
  if (conserve_row_[sp_.interval_id(l + 1, m)][node] != kNoRow) {
    entries.emplace_back(conserve_row_[sp_.interval_id(l + 1, m)][node],
                         Rational(-1));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::string IntervalFlowOracle::send_name(std::size_t interval_id,
                                          EdgeId e) const {
  auto [k, m] = sp_.interval(interval_id);
  return "send_" + edge_tag(instance_.platform, e) + "_v" +
         std::to_string(k) + "_" + std::to_string(m);
}

std::string IntervalFlowOracle::cons_name(NodeId node,
                                          std::size_t task) const {
  if (family_ == Family::kReduce) {
    auto [k, l, m] = sp_.task(task);
    return "cons_" + node_tag(instance_.platform, node) + "_T" +
           std::to_string(k) + "_" + std::to_string(l) + "_" +
           std::to_string(m);
  }
  return "cons_" + node_tag(instance_.platform, node) + "_t" +
         std::to_string(task);
}

lp::GeneratedColumn IntervalFlowOracle::make_send(std::size_t interval_id,
                                                  EdgeId e) const {
  GeneratedColumn gc;
  gc.name = send_name(interval_id, e);
  gc.objective = Rational(0);
  gc.entries = send_entries(interval_id, e);
  gc.tag = make_tag(kSendTag, interval_id, e);
  return gc;
}

lp::GeneratedColumn IntervalFlowOracle::make_cons(NodeId node,
                                                  std::size_t task) const {
  GeneratedColumn gc;
  gc.name = cons_name(node, task);
  gc.objective = Rational(0);
  gc.entries = cons_entries(node, task);
  gc.tag = make_tag(kConsTag, node, task);
  return gc;
}

void IntervalFlowOracle::seed_hints_from_names(
    const std::vector<std::string>& names,
    std::vector<std::pair<std::size_t, EdgeId>>& send_seed,
    std::vector<std::pair<NodeId, std::size_t>>& cons_seed) const {
  if (names.empty()) return;
  // One pass over the implicit column set builds the name index; a basis
  // snapshot has at most m entries, so the map amortizes immediately.
  std::unordered_map<std::string, std::uint64_t> by_name;
  by_name.reserve(total_columns_);
  const auto& graph = instance_.platform.graph();
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (send_var_[iv][e] == kSuppressed) continue;
      by_name.emplace(send_name(iv, e), make_tag(kSendTag, iv, e));
    }
  }
  for (NodeId node : compute_nodes_) {
    for (std::size_t task = 0; task < sp_.num_tasks(); ++task) {
      by_name.emplace(cons_name(node, task), make_tag(kConsTag, node, task));
    }
  }
  for (const std::string& name : names) {
    auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    if (tag_kind(it->second) == kSendTag) {
      send_seed.emplace_back(tag_a(it->second), tag_b(it->second));
    } else {
      cons_seed.emplace_back(tag_a(it->second), tag_b(it->second));
    }
  }
}

void IntervalFlowOracle::register_var(std::uint64_t tag, std::size_t var) {
  if (var != var_tags_.size()) {
    throw std::logic_error("interval colgen: non-sequential column append");
  }
  var_tags_.push_back(tag);
  switch (tag_kind(tag)) {
    case kSendTag:
      send_var_[tag_a(tag)][tag_b(tag)] = var;
      break;
    case kConsTag:
      cons_var_[tag_a(tag)][tag_b(tag)] = var;
      break;
    default:
      break;  // TP
  }
}

void IntervalFlowOracle::added(const lp::GeneratedColumn& column,
                               lp::VarId var) {
  register_var(column.tag, var.index);
}

void IntervalFlowOracle::price(const std::vector<double>& y, double tolerance,
                               std::size_t max_columns,
                               std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  struct Cand {
    double d;
    std::uint64_t tag;
  };
  std::vector<Cand> cands;
  auto dual = [&](std::size_t row) { return row == kNoRow ? 0.0 : y[row]; };

  // Both grids shard over their OUTER dimension (interval rows of the send
  // grid, compute nodes of the cons grid); every candidate's reduced cost
  // is computed independently, and the shard-major merge below reproduces
  // the serial scan order exactly, so the emitted list is bit-identical to
  // a serial sweep at any thread count.
  const std::size_t n_iv = sp_.num_intervals();
  {
    const std::size_t shards = par_.shard_count(n_iv, 8);
    std::vector<lp::ShardLocal<std::vector<Cand>>> parts(shards);
    par_.for_shards(
        n_iv, 8, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t iv = begin; iv < end; ++iv) {
            const auto& present = send_var_[iv];
            const auto& conserve = conserve_row_[iv];
            for (EdgeId e = 0; e < graph.num_edges(); ++e) {
              if (present[e] != kAbsent) continue;
              const auto& edge = graph.edge(e);
              const double d =
                  edge_unit_d_[e] * (dual(op_out_row_[edge.src]) +
                                     dual(op_in_row_[edge.dst])) +
                  dual(conserve[edge.dst]) - dual(conserve[edge.src]);
              if (d < -tolerance) {
                local.push_back({d, make_tag(kSendTag, iv, e)});
              }
            }
          }
        });
    for (auto& part : parts) {
      cands.insert(cands.end(), part.value.begin(), part.value.end());
    }
  }
  {
    const std::size_t shards = par_.shard_count(compute_nodes_.size(), 1);
    std::vector<lp::ShardLocal<std::vector<Cand>>> parts(shards);
    par_.for_shards(
        compute_nodes_.size(), 1,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t c = begin; c < end; ++c) {
            const NodeId node = compute_nodes_[c];
            const double yc = dual(compute_row_[node]);
            for (std::size_t iv = 0; iv < n_iv; ++iv) {
              auto [k, m] = sp_.interval(iv);
              for (std::size_t l = k; l < m; ++l) {
                const std::size_t task = sp_.task_id(k, l, m);
                if (cons_var_[node][task] != kAbsent) continue;
                const double d =
                    node_unit_d_[node] * yc + dual(conserve_row_[iv][node]) -
                    dual(conserve_row_[sp_.interval_id(k, l)][node]) -
                    dual(conserve_row_[sp_.interval_id(l + 1, m)][node]);
                if (d < -tolerance) {
                  local.push_back({d, make_tag(kConsTag, node, task)});
                }
              }
            }
          }
        });
    for (auto& part : parts) {
      cands.insert(cands.end(), part.value.begin(), part.value.end());
    }
  }

  auto more_violated = [](const Cand& a, const Cand& b) {
    if (a.d != b.d) return a.d < b.d;
    return a.tag < b.tag;
  };
  if (cands.size() > max_columns) {
    std::nth_element(cands.begin(), cands.begin() + max_columns, cands.end(),
                     more_violated);
    cands.resize(max_columns);
  }
  std::sort(cands.begin(), cands.end(), more_violated);
  out.reserve(out.size() + cands.size());
  for (const Cand& c : cands) {
    if (tag_kind(c.tag) == kSendTag) {
      out.push_back(make_send(tag_a(c.tag), tag_b(c.tag)));
    } else {
      out.push_back(make_cons(tag_a(c.tag), tag_b(c.tag)));
    }
  }
}

void IntervalFlowOracle::price_exact(const std::vector<Rational>& y,
                                     std::size_t max_columns,
                                     std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  // Exact reduced cost straight off the skeleton (generated columns have
  // zero objective, so A'y < 0 is the violation test). The all-zero-dual
  // fast path matters: at an optimum most one-port rows are slack and most
  // conservation potentials sit at zero, so the typical absent column never
  // touches a rational.
  auto is_zero = [&](std::size_t row) {
    return row == kNoRow || y[row].is_zero();
  };
  // How many more columns this call may emit. A serial sweep stops the
  // moment `out` reaches max_columns; the sharded sweep below caps every
  // shard at `needed` and truncates the shard-major merge to `needed`,
  // which provably reproduces the serial prefix: the serial output is the
  // first `needed` violated tags in global scan order, each shard's
  // contribution to that prefix is at most `needed`, and the merge
  // preserves the global order.
  const std::size_t needed =
      max_columns > out.size() ? max_columns - out.size() : 1;

  // Violation test per grid cell, exact.
  auto send_violated = [&](std::size_t iv, EdgeId e) {
    const auto& edge = graph.edge(e);
    const std::size_t r_out = op_out_row_[edge.src];
    const std::size_t r_in = op_in_row_[edge.dst];
    const std::size_t r_dst = conserve_row_[iv][edge.dst];
    const std::size_t r_src = conserve_row_[iv][edge.src];
    if (is_zero(r_out) && is_zero(r_in) && is_zero(r_dst) && is_zero(r_src)) {
      return false;
    }
    Rational rc(0);
    if (!is_zero(r_out)) rc.add_product(edge_unit_[e], y[r_out]);
    if (!is_zero(r_in)) rc.add_product(edge_unit_[e], y[r_in]);
    if (!is_zero(r_dst)) rc += y[r_dst];
    if (!is_zero(r_src)) rc -= y[r_src];
    return rc.signum() < 0;
  };
  auto cons_violated = [&](NodeId node, std::size_t iv, std::size_t l) {
    auto [k, m] = sp_.interval(iv);
    const std::size_t r_comp = compute_row_[node];
    const std::size_t r_prod = conserve_row_[iv][node];
    const std::size_t r_left = conserve_row_[sp_.interval_id(k, l)][node];
    const std::size_t r_right = conserve_row_[sp_.interval_id(l + 1, m)][node];
    if (is_zero(r_comp) && is_zero(r_prod) && is_zero(r_left) &&
        is_zero(r_right)) {
      return false;
    }
    Rational rc(0);
    if (!is_zero(r_comp)) rc.add_product(node_unit_[node], y[r_comp]);
    if (!is_zero(r_prod)) rc += y[r_prod];
    if (!is_zero(r_left)) rc -= y[r_left];
    if (!is_zero(r_right)) rc -= y[r_right];
    return rc.signum() < 0;
  };

  // Sharded sweep collecting violated TAGS (cheap); columns materialize
  // only for the merged, truncated survivors.
  std::vector<std::uint64_t> tags;
  const std::size_t n_iv = sp_.num_intervals();
  {
    const std::size_t shards = par_.shard_count(n_iv, 8);
    std::vector<lp::ShardLocal<std::vector<std::uint64_t>>> parts(shards);
    par_.for_shards(
        n_iv, 8, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t iv = begin; iv < end && local.size() < needed;
               ++iv) {
            const auto& present = send_var_[iv];
            for (EdgeId e = 0; e < graph.num_edges(); ++e) {
              if (present[e] != kAbsent) continue;
              if (send_violated(iv, e)) {
                local.push_back(make_tag(kSendTag, iv, e));
                if (local.size() >= needed) break;
              }
            }
          }
        });
    for (auto& part : parts) {
      tags.insert(tags.end(), part.value.begin(), part.value.end());
    }
  }
  if (tags.size() < needed) {
    const std::size_t shards = par_.shard_count(compute_nodes_.size(), 1);
    std::vector<lp::ShardLocal<std::vector<std::uint64_t>>> parts(shards);
    par_.for_shards(
        compute_nodes_.size(), 1,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t c = begin; c < end && local.size() < needed; ++c) {
            const NodeId node = compute_nodes_[c];
            for (std::size_t iv = 0; iv < n_iv && local.size() < needed;
                 ++iv) {
              auto [k, m] = sp_.interval(iv);
              for (std::size_t l = k; l < m; ++l) {
                const std::size_t task = sp_.task_id(k, l, m);
                if (cons_var_[node][task] != kAbsent) continue;
                if (cons_violated(node, iv, l)) {
                  local.push_back(make_tag(kConsTag, node, task));
                  if (local.size() >= needed) break;
                }
              }
            }
          }
        });
    for (auto& part : parts) {
      tags.insert(tags.end(), part.value.begin(), part.value.end());
    }
  }
  if (tags.size() > needed) tags.resize(needed);
  out.reserve(out.size() + tags.size());
  for (std::uint64_t tag : tags) {
    if (tag_kind(tag) == kSendTag) {
      out.push_back(make_send(tag_a(tag), tag_b(tag)));
    } else {
      out.push_back(make_cons(tag_a(tag), tag_b(tag)));
    }
  }
}

void IntervalFlowOracle::materialize_all(
    std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (send_var_[iv][e] == kAbsent) out.push_back(make_send(iv, e));
    }
  }
  for (NodeId node : compute_nodes_) {
    for (std::size_t task = 0; task < sp_.num_tasks(); ++task) {
      if (cons_var_[node][task] == kAbsent) {
        out.push_back(make_cons(node, task));
      }
    }
  }
}

std::optional<lp::ExactSolution> IntervalFlowOracle::try_solve(
    const platform::ReduceInstance& instance, Family family,
    const std::vector<NodeId>& compute_nodes, ColGenMode mode,
    const lp::ExactSolver& solver, lp::SolveContext& context,
    const std::function<IntervalSeeds()>& heuristic_seeds,
    const ReduceSolution* previous, ReduceSolution& out) {
  const bool use_colgen =
      mode == ColGenMode::kAlways ||
      (mode == ColGenMode::kAuto &&
       full_model_columns(instance, family, compute_nodes.size()) >=
           kColGenMinColumns);
  if (!use_colgen) return std::nullopt;

  IntervalSeeds seeds = heuristic_seeds();
  IntervalFlowOracle oracle(instance, family, compute_nodes);
  if (previous &&
      previous->num_participants == instance.participants.size()) {
    // The previous tables are sized (and id-keyed) by the OLD platform; on
    // a mutated one, ids past the current ranges are dropped and surviving
    // ids may denote remapped entities — both only degrade the seed, never
    // correctness (the basis-name seeding below is the id-stable part, and
    // every solution is certified regardless).
    const std::size_t max_iv =
        std::min(previous->send.size(), oracle.sp_.num_intervals());
    for (std::size_t iv = 0; iv < max_iv; ++iv) {
      const std::size_t max_e = std::min<std::size_t>(
          previous->send[iv].size(), instance.platform.num_edges());
      for (EdgeId e = 0; e < max_e; ++e) {
        if (!previous->send[iv][e].is_zero()) seeds.send.emplace_back(iv, e);
      }
    }
    const std::size_t max_n = std::min<std::size_t>(
        previous->cons.size(), instance.platform.num_nodes());
    for (NodeId n = 0; n < max_n; ++n) {
      const std::size_t max_t =
          std::min(previous->cons[n].size(), oracle.sp_.num_tasks());
      for (std::size_t t = 0; t < max_t; ++t) {
        if (!previous->cons[n][t].is_zero()) seeds.cons.emplace_back(n, t);
      }
    }
    // The basis snapshot names columns the solution tables cannot reveal
    // (degenerate basics at zero); the master must contain them or the
    // warm basis maps onto a singular selection.
    std::vector<std::string> basis_names;
    for (const auto& entry : previous->lp_basis.entries) {
      if (entry.kind == lp::BasisColumn::Kind::kStructural &&
          !entry.bound_row) {
        basis_names.push_back(entry.name);
      }
    }
    oracle.seed_hints_from_names(basis_names, seeds.send, seeds.cons);
  }
  lp::Model master = oracle.build_master(std::move(seeds));
  lp::ExactSolution sol =
      solver.solve_colgen(master, oracle, lp::ColGenOptions{}, &context);
  if (sol.status == lp::SolveStatus::kOptimal) {
    oracle.extract(sol.primal, out);
  }
  return sol;
}

void IntervalFlowOracle::extract(const std::vector<Rational>& primal,
                                 ReduceSolution& out) const {
  const auto& graph = instance_.platform.graph();
  out.num_participants = instance_.participants.size();
  out.send.assign(sp_.num_intervals(),
                  std::vector<Rational>(graph.num_edges(), Rational(0)));
  out.cons.assign(graph.num_nodes(),
                  std::vector<Rational>(sp_.num_tasks(), Rational(0)));
  for (std::size_t var = 0; var < var_tags_.size(); ++var) {
    const std::uint64_t tag = var_tags_[var];
    switch (tag_kind(tag)) {
      case kSendTag:
        out.send[tag_a(tag)][tag_b(tag)] = primal[var];
        break;
      case kConsTag:
        out.cons[tag_a(tag)][tag_b(tag)] = primal[var];
        break;
      default:
        out.throughput = primal[var];
        break;
    }
  }
}

}  // namespace ssco::core
