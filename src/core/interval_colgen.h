#pragma once
// Column generation for the reduce-family LPs (SSR Sec. 4.2 and the
// parallel-prefix extension of Sec. 6).
//
// Both formulations share the quadratic variable space that makes large-N
// instances expensive to materialize: one send variable per (adjacent
// interval, edge) — O(N^2 * |E|) of them — plus merge-task placements
// cons(node, T(k,l,m)). Their optimum touches a few hundred. This module
// is the structural PricingOracle the colgen driver (lp/colgen.h) runs
// against:
//
//  * build_master() ENUMERATES the complete row skeleton of the full model
//    — identical names, senses and right-hand sides to the dense builders
//    in reduce_lp.cpp / prefix_lp.cpp — but materializes only the rows the
//    seed columns (heuristic reduction-tree plans, the support of a
//    previous solution) and the TP column touch: the oracle is also a ROW
//    generator (full_row_count/row_spec), so the colgen driver activates
//    the remaining rows lazily as priced-in columns first reference them.
//    Every skeleton row is zero-feasible (<= with rhs 1, == with rhs 0),
//    which is what lets a master solution extend to the full model with
//    zeros over absent columns AND inactive rows, and lets master duals —
//    lifted with zeros — price absent columns;
//  * price() / price_exact() walk the implicit (interval, edge) send grid
//    and the (node, task) cons grid in one structured pass, deriving each
//    column's four-row support from the skeleton instead of from any
//    materialized matrix;
//  * generated columns carry exactly the names the dense builders would
//    have used, so warm-start snapshots map across dense and colgen builds
//    interchangeably.
//
// The two families differ only in the sink rule (reduce: v[0,N-1] absorbed
// at the target; prefix: every v[0,i] absorbed at participant i) and the
// matching suppression rule, parameterized here rather than duplicated.
// Gossip and scatter stay on the dense path by design: their column count
// is linear in sources x edges, so a restricted master would only add
// rounds (measured in DESIGN.md "Column generation").

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/intervals.h"
#include "core/reduce_solution.h"
#include "lp/colgen.h"
#include "platform/paper_instances.h"

namespace ssco::core {

/// Column-generation policy of the reduce-family solvers.
enum class ColGenMode {
  /// Use column generation once the full model reaches
  /// kColGenMinColumns columns; dense below it (small models certify
  /// faster dense).
  kAuto,
  kAlways,
  kNever,
};

/// kAuto's column threshold.
inline constexpr std::size_t kColGenMinColumns = 8192;

/// Seed hints for a restricted master: (interval, edge) send pairs and
/// (node, task) merge placements.
struct IntervalSeeds {
  std::vector<std::pair<std::size_t, EdgeId>> send;
  std::vector<std::pair<NodeId, std::size_t>> cons;
};

class IntervalFlowOracle final : public lp::PricingOracle {
 public:
  enum class Family { kReduce, kPrefix };

  /// `instance` must outlive the oracle and already be validated by the
  /// caller (check_instance of the respective builder); `compute_nodes`
  /// resolved the same way the dense builder resolves them.
  IntervalFlowOracle(const platform::ReduceInstance& instance, Family family,
                     std::vector<NodeId> compute_nodes);

  /// Builds the restricted master: the full row skeleton over the seed
  /// columns only, plus the TP column. Seed hints are deduplicated and
  /// sorted (deterministic master layout); suppressed pairs are dropped;
  /// out-of-range hints throw. Call exactly once.
  [[nodiscard]] lp::Model build_master(
      std::vector<std::pair<std::size_t, EdgeId>> send_seed,
      std::vector<std::pair<NodeId, std::size_t>> cons_seed);
  [[nodiscard]] lp::Model build_master(IntervalSeeds seeds) {
    return build_master(std::move(seeds.send), std::move(seeds.cons));
  }

  // --- lp::PricingOracle --------------------------------------------------
  [[nodiscard]] std::size_t total_columns() const override {
    return total_columns_;
  }
  /// Row generation: the full row skeleton is enumerated (names, senses,
  /// right-hand sides) but NOT materialized by build_master — the master
  /// starts with only the rows its seed columns and the TP column touch
  /// (at n=256 that leaves ~10k conservation/one-port rows out), and the
  /// colgen driver activates the rest lazily as priced-in columns first
  /// reference them. All emitted column entries are in FULL row ids.
  [[nodiscard]] std::size_t full_row_count() const override {
    return row_specs_.size();
  }
  [[nodiscard]] lp::GeneratedRow row_spec(
      std::size_t full_row) const override {
    return row_specs_[full_row];
  }
  [[nodiscard]] std::vector<std::size_t> master_row_origins() const override {
    return master_row_origins_;
  }
  void price(const std::vector<double>& y, double tolerance,
             std::size_t max_columns,
             std::vector<lp::GeneratedColumn>& out) override;
  void price_exact(const std::vector<Rational>& y, std::size_t max_columns,
                   std::vector<lp::GeneratedColumn>& out) override;
  void added(const lp::GeneratedColumn& column, lp::VarId var) override;
  void materialize_all(std::vector<lp::GeneratedColumn>& out) override;
  /// Shards the price()/price_exact() grid scans across the solve's pool.
  /// Candidates are collected per shard and merged shard-major — the exact
  /// serial scan order — so the emitted column list is bit-identical to a
  /// serial sweep at every thread count (see price_exact for the truncation
  /// argument).
  void set_parallel(const lp::Parallel& parallel) override {
    par_ = parallel;
  }

  /// Maps a master-space primal onto the solution tables (send, cons,
  /// throughput); absent columns are zero.
  void extract(const std::vector<Rational>& primal, ReduceSolution& out) const;

  /// Resolves structural column NAMES — a previous basis snapshot — back to
  /// seed hints. A warm re-solve must seed these explicitly: the previous
  /// SOLUTION tables miss every degenerate basic column (they sit at zero),
  /// and a master without them maps the old basis onto a singular
  /// selection. Unknown names are ignored. Call before build_master.
  void seed_hints_from_names(
      const std::vector<std::string>& names,
      std::vector<std::pair<std::size_t, EdgeId>>& send_seed,
      std::vector<std::pair<NodeId, std::size_t>>& cons_seed) const;

  [[nodiscard]] const IntervalSpace& space() const { return sp_; }

  /// Columns of the full model, computed without building anything — the
  /// kAuto policy check.
  [[nodiscard]] static std::size_t full_model_columns(
      const platform::ReduceInstance& instance, Family family,
      std::size_t num_compute_nodes);

  /// Shared column-generation dispatch of solve_reduce / solve_prefix.
  /// Decides colgen vs dense from `mode` and kColGenMinColumns; when
  /// colgen applies, seeds the master (`heuristic_seeds()` — a callback so
  /// dense solves never pay the heuristic's Dijkstra runs — plus, on a
  /// warm re-solve, the previous solution's support and basis names), runs
  /// ExactSolver::solve_colgen with `context`, and extracts the solution
  /// tables into `out` (only when optimal). Returns the ExactSolution, or
  /// nullopt when the caller should take its dense path; the caller owns
  /// the non-optimal error contract — check the returned status.
  [[nodiscard]] static std::optional<lp::ExactSolution> try_solve(
      const platform::ReduceInstance& instance, Family family,
      const std::vector<NodeId>& compute_nodes, ColGenMode mode,
      const lp::ExactSolver& solver, lp::SolveContext& context,
      const std::function<IntervalSeeds()>& heuristic_seeds,
      const ReduceSolution* previous, ReduceSolution& out);

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  static constexpr std::size_t kSuppressed = static_cast<std::size_t>(-2);

  [[nodiscard]] bool suppressed(std::size_t interval_id,
                                const graph::Edge& edge) const;
  [[nodiscard]] std::vector<std::pair<std::size_t, Rational>> send_entries(
      std::size_t interval_id, EdgeId e) const;
  [[nodiscard]] std::vector<std::pair<std::size_t, Rational>> cons_entries(
      NodeId node, std::size_t task) const;
  [[nodiscard]] std::string send_name(std::size_t interval_id, EdgeId e) const;
  [[nodiscard]] std::string cons_name(NodeId node, std::size_t task) const;
  [[nodiscard]] lp::GeneratedColumn make_send(std::size_t interval_id,
                                              EdgeId e) const;
  [[nodiscard]] lp::GeneratedColumn make_cons(NodeId node,
                                              std::size_t task) const;
  /// Registers a seeded/appended column's identity at the next var index.
  void register_var(std::uint64_t tag, std::size_t var);

  const platform::ReduceInstance& instance_;
  Family family_;
  IntervalSpace sp_;
  lp::Parallel par_;  // serial unless the colgen driver hands us a pool
  std::vector<NodeId> compute_nodes_;
  std::vector<char> is_compute_;

  // Full row skeleton (FULL row ids into row_specs_; kNoRow where the full
  // model has no such row).
  std::vector<std::size_t> op_out_row_;
  std::vector<std::size_t> op_in_row_;
  std::vector<std::size_t> compute_row_;
  std::vector<std::vector<std::size_t>> conserve_row_;  // [interval][node]
  /// Name/sense/rhs of every full-model row, indexed by full row id.
  std::vector<lp::GeneratedRow> row_specs_;
  /// Full row id behind each master row of the freshly built master (the
  /// rows the seed columns and TP touch), in master row order.
  std::vector<std::size_t> master_row_origins_;

  // Column registry: master var index per implicit column, or kAbsent /
  // kSuppressed; identity tags per master var (for extract()).
  std::vector<std::vector<std::size_t>> send_var_;  // [interval][edge]
  std::vector<std::vector<std::size_t>> cons_var_;  // [node][task]
  std::vector<std::uint64_t> var_tags_;
  std::size_t total_columns_ = 0;

  // Cached per-edge / per-node units (message_size * cost, work / speed).
  std::vector<Rational> edge_unit_;
  std::vector<double> edge_unit_d_;
  std::vector<Rational> node_unit_;
  std::vector<double> node_unit_d_;
};

}  // namespace ssco::core
