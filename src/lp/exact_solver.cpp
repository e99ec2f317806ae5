#include "lp/exact_solver.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lp/column_layout.h"
#include "lp/dual_simplex.h"
#include "lp/exact_basis.h"
#include "num/reconstruct.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ssco::lp {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Reconstruction tolerance: |rounded - double| must be below this.
constexpr double kReconstructTolerance = 1e-6;

/// Shard granularity of the certification loops: each item is big-int
/// rational work, so fairly fine shards still amortize the fork.
constexpr std::size_t kMinCertifyPerShard = 16;

/// Rounds every entry of `values` to a rational with denominator <= cap;
/// returns nullopt when any entry misses kReconstructTolerance. Entries
/// are independent, so the sharded fill is bit-identical to the serial
/// scan.
std::optional<std::vector<Rational>> reconstruct_vector(
    const std::vector<double>& values, std::uint64_t cap,
    const Parallel& par = {}) {
  std::vector<Rational> out(values.size());
  const std::size_t shards = par.shard_count(values.size(), kMinCertifyPerShard);
  std::vector<ShardLocal<bool>> ok(shards);
  par.for_shards(values.size(), kMinCertifyPerShard,
                 [&](std::size_t shard, std::size_t begin, std::size_t end) {
                   bool all = true;
                   for (std::size_t i = begin; i < end && all; ++i) {
                     auto r = num::rational_near_double(
                         values[i], kReconstructTolerance, cap);
                     if (r) {
                       out[i] = std::move(*r);
                     } else {
                       all = false;
                     }
                   }
                   ok[shard].value = all;
                 });
  for (const auto& flag : ok) {
    if (!flag.value) return std::nullopt;
  }
  return out;
}

/// Recovers the EXACT primal/dual pair from the double solver's final basis:
/// solve B x_B = b and B' y = c_B exactly (lp/exact_basis.h) and verify the
/// certificate. Handles the degenerate optima whose vertex coordinates have
/// denominators far beyond what float reconstruction can recover.
struct BasisVerified {
  std::vector<Rational> primal;  // shifted space
  std::vector<Rational> dual;
};

std::optional<BasisVerified> verify_from_basis(
    const ExpandedModel& em, const std::vector<BasisColumn>& basis,
    const Parallel& par = {}) {
  const std::size_t m = em.rows.size();
  if (basis.size() != m) return std::nullopt;

  // Column entries per structural variable, from the row-major model.
  std::vector<std::vector<std::pair<std::size_t, Rational>>> var_entries(
      em.num_vars);
  for (std::size_t i = 0; i < m; ++i) {
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      var_entries[idx].emplace_back(i, coeff);
    }
  }
  auto flipped = [&em](std::size_t i) {
    return em.rows[i].rhs.is_negative();
  };

  SparseColumns b_matrix;
  b_matrix.n = m;
  b_matrix.cols.resize(m);
  std::vector<Rational> cost_basis(m, Rational(0));
  for (std::size_t k = 0; k < m; ++k) {
    switch (basis[k].kind) {
      case BasisColumn::Kind::kStructural:
        b_matrix.cols[k] = var_entries[basis[k].index];
        cost_basis[k] = em.objective[basis[k].index];
        break;
      case BasisColumn::Kind::kSlack:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? -1 : 1));
        break;
      case BasisColumn::Kind::kSurplus:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? 1 : -1));
        break;
      case BasisColumn::Kind::kArtificial:
        b_matrix.cols[k].emplace_back(
            basis[k].index, Rational(flipped(basis[k].index) ? -1 : 1));
        break;
    }
  }

  std::vector<Rational> rhs(m, Rational(0));
  for (std::size_t i = 0; i < m; ++i) rhs[i] = em.rows[i].rhs;

  // One shared LU: B x_B = b via FTRAN-refinement, B' y = c_B via BTRAN.
  auto solves = solve_sparse_exact_pair(b_matrix, rhs, cost_basis, {}, par);
  if (!solves) return std::nullopt;

  BasisVerified out;
  out.primal.assign(em.num_vars, Rational(0));
  for (std::size_t k = 0; k < m; ++k) {
    if (basis[k].kind == BasisColumn::Kind::kStructural) {
      out.primal[basis[k].index] = solves->solution[k];
    }
  }
  out.dual = std::move(solves->transposed_solution);
  if (!ExactSolver::verify_certificate(em, out.primal, out.dual, par)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

bool ExactSolver::verify_certificate(const ExpandedModel& em,
                                     const std::vector<Rational>& x,
                                     const std::vector<Rational>& y) {
  if (x.size() != em.num_vars || y.size() != em.rows.size()) return false;

  // Primal feasibility: x >= 0 (shifted space) and every row satisfied.
  for (const Rational& xj : x) {
    if (xj.is_negative()) return false;
  }
  for (std::size_t i = 0; i < em.rows.size(); ++i) {
    Rational lhs(0);
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      lhs.add_product(coeff, x[idx]);
    }
    switch (em.rows[i].sense) {
      case Sense::kLessEqual:
        if (lhs > em.rows[i].rhs) return false;
        break;
      case Sense::kEqual:
        if (lhs != em.rows[i].rhs) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < em.rows[i].rhs) return false;
        break;
    }
  }

  // Dual sign conditions: <= rows need y >= 0, >= rows need y <= 0.
  for (std::size_t i = 0; i < em.rows.size(); ++i) {
    if (em.rows[i].sense == Sense::kLessEqual && y[i].is_negative())
      return false;
    if (em.rows[i].sense == Sense::kGreaterEqual && y[i].signum() > 0)
      return false;
  }

  // Dual feasibility: for every variable j, sum_i y_i a_ij >= c_j
  // (variables are >= 0 in expanded space).
  std::vector<Rational> aty(em.num_vars, Rational(0));
  for (std::size_t i = 0; i < em.rows.size(); ++i) {
    if (y[i].is_zero()) continue;
    for (const auto& [idx, coeff] : em.rows[i].coeffs) {
      aty[idx].add_product(y[i], coeff);
    }
  }
  for (std::size_t j = 0; j < em.num_vars; ++j) {
    if (aty[j] < em.objective[j]) return false;
  }

  // Strong duality at the candidate pair: c'x == b'y exactly.
  Rational primal_obj(0);
  for (std::size_t j = 0; j < em.num_vars; ++j) {
    if (!em.objective[j].is_zero()) primal_obj.add_product(em.objective[j], x[j]);
  }
  Rational dual_obj(0);
  for (std::size_t i = 0; i < em.rows.size(); ++i) {
    if (!y[i].is_zero()) dual_obj.add_product(y[i], em.rows[i].rhs);
  }
  return primal_obj == dual_obj;
}

bool ExactSolver::verify_certificate(const ExpandedModel& em,
                                     const std::vector<Rational>& x,
                                     const std::vector<Rational>& y,
                                     const Parallel& parallel) {
  if (parallel.is_serial()) return verify_certificate(em, x, y);
  if (x.size() != em.num_vars || y.size() != em.rows.size()) return false;
  const std::size_t m = em.rows.size();
  const Parallel& par = parallel;

  // Sign scans are cheap comparisons; keep them serial.
  for (const Rational& xj : x) {
    if (xj.is_negative()) return false;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (em.rows[i].sense == Sense::kLessEqual && y[i].is_negative())
      return false;
    if (em.rows[i].sense == Sense::kGreaterEqual && y[i].signum() > 0)
      return false;
  }

  // Primal feasibility: every row check is independent — shard the rows.
  // The verdict is a conjunction, so evaluation order cannot change it.
  {
    const std::size_t shards = par.shard_count(m, kMinCertifyPerShard);
    std::vector<ShardLocal<bool>> ok(shards);
    par.for_shards(m, kMinCertifyPerShard,
                   [&](std::size_t shard, std::size_t begin, std::size_t end) {
                     bool all = true;
                     Rational lhs;
                     for (std::size_t i = begin; i < end && all; ++i) {
                       lhs = Rational(0);
                       for (const auto& [idx, coeff] : em.rows[i].coeffs) {
                         lhs.add_product(coeff, x[idx]);
                       }
                       switch (em.rows[i].sense) {
                         case Sense::kLessEqual:
                           all = !(lhs > em.rows[i].rhs);
                           break;
                         case Sense::kEqual:
                           all = lhs == em.rows[i].rhs;
                           break;
                         case Sense::kGreaterEqual:
                           all = !(lhs < em.rows[i].rhs);
                           break;
                       }
                     }
                     ok[shard].value = all;
                   });
    for (const auto& flag : ok) {
      if (!flag.value) return false;
    }
  }

  // Dual feasibility, A'y >= c per column: build a column view of the
  // row-major model once (index/pointer copies only), then shard the
  // per-column reduced-cost checks. Each column's dot runs in the same row
  // order as the serial scatter — and is exact anyway.
  {
    std::vector<std::vector<std::pair<std::size_t, const Rational*>>> by_var(
        em.num_vars);
    for (std::size_t i = 0; i < m; ++i) {
      if (y[i].is_zero()) continue;
      for (const auto& [idx, coeff] : em.rows[i].coeffs) {
        by_var[idx].emplace_back(i, &coeff);
      }
    }
    const std::size_t shards = par.shard_count(em.num_vars, kMinCertifyPerShard);
    std::vector<ShardLocal<bool>> ok(shards);
    par.for_shards(em.num_vars, kMinCertifyPerShard,
                   [&](std::size_t shard, std::size_t begin, std::size_t end) {
                     bool all = true;
                     Rational aty;
                     for (std::size_t j = begin; j < end && all; ++j) {
                       aty = Rational(0);
                       for (const auto& [i, coeff] : by_var[j]) {
                         aty.add_product(y[i], *coeff);
                       }
                       all = !(aty < em.objective[j]);
                     }
                     ok[shard].value = all;
                   });
    for (const auto& flag : ok) {
      if (!flag.value) return false;
    }
  }

  // Strong duality: per-shard exact partial objectives, merged shard-major
  // (exact addition is associative, so the sums are canonical).
  Rational primal_obj(0);
  Rational dual_obj(0);
  {
    const std::size_t pshards = par.shard_count(em.num_vars, kMinCertifyPerShard);
    std::vector<ShardLocal<Rational>> ppart(pshards);
    par.for_shards(em.num_vars, kMinCertifyPerShard,
                   [&](std::size_t shard, std::size_t begin, std::size_t end) {
                     Rational sum(0);
                     for (std::size_t j = begin; j < end; ++j) {
                       if (!em.objective[j].is_zero()) {
                         sum.add_product(em.objective[j], x[j]);
                       }
                     }
                     ppart[shard].value = std::move(sum);
                   });
    for (auto& part : ppart) primal_obj += part.value;

    const std::size_t dshards = par.shard_count(m, kMinCertifyPerShard);
    std::vector<ShardLocal<Rational>> dpart(dshards);
    par.for_shards(m, kMinCertifyPerShard,
                   [&](std::size_t shard, std::size_t begin, std::size_t end) {
                     Rational sum(0);
                     for (std::size_t i = begin; i < end; ++i) {
                       if (!y[i].is_zero()) {
                         sum.add_product(y[i], em.rows[i].rhs);
                       }
                     }
                     dpart[shard].value = std::move(sum);
                   });
    for (auto& part : dpart) dual_obj += part.value;
  }
  return primal_obj == dual_obj;
}

ExactSolution ExactSolver::solve(const Model& model) const {
  return solve(model, nullptr);
}

bool certify_float_result(const ExpandedModel& em,
                          const SimplexResult<double>& fp,
                          const ExactSolverOptions& options,
                          ExactSolution& out, const Parallel& parallel) {
  for (std::uint64_t cap : options.denominator_caps) {
    auto x = reconstruct_vector(fp.primal, cap, parallel);
    auto y = reconstruct_vector(fp.dual, cap, parallel);
    if (!x || !y) continue;
    // Clamp reconstruction noise: tiny negatives are infeasible exactly.
    for (Rational& v : *x) {
      if (v.is_negative()) v = Rational(0);
    }
    if (ExactSolver::verify_certificate(em, *x, *y, parallel)) {
      out.status = SolveStatus::kOptimal;
      Rational obj(0);
      for (std::size_t j = 0; j < em.num_vars; ++j) {
        if (!em.objective[j].is_zero()) obj.add_product(em.objective[j], (*x)[j]);
      }
      out.primal = em.unshift(*x);
      out.dual = std::move(*y);
      out.objective = obj + em.objective_constant;
      out.certified = true;
      out.method = "double+certificate";
      return true;
    }
  }
  // Second stage: exact recovery from the optimal basis (degenerate optima
  // with large vertex denominators land here).
  if (options.allow_basis_verification) {
    if (auto verified = verify_from_basis(em, fp.basis, parallel)) {
      out.status = SolveStatus::kOptimal;
      Rational obj(0);
      for (std::size_t j = 0; j < em.num_vars; ++j) {
        if (!em.objective[j].is_zero()) {
          obj.add_product(em.objective[j], verified->primal[j]);
        }
      }
      out.primal = em.unshift(verified->primal);
      out.dual = std::move(verified->dual);
      out.objective = obj + em.objective_constant;
      out.certified = true;
      out.method = "double+basis-verification";
      return true;
    }
  }
  return false;
}

SolverStats ExactSolver::stats() const {
  SolverStats out;
  out.solves = stats_.solves.load(std::memory_order_relaxed);
  out.warm_attempts = stats_.warm_attempts.load(std::memory_order_relaxed);
  out.warm_solves = stats_.warm_solves.load(std::memory_order_relaxed);
  out.float_pivots = stats_.float_pivots.load(std::memory_order_relaxed);
  out.exact_pivots = stats_.exact_pivots.load(std::memory_order_relaxed);
  out.exact_fallbacks =
      stats_.exact_fallbacks.load(std::memory_order_relaxed);
  out.ftran_ns = stats_.ftran_ns.load(std::memory_order_relaxed);
  out.btran_ns = stats_.btran_ns.load(std::memory_order_relaxed);
  out.pricing_ns = stats_.pricing_ns.load(std::memory_order_relaxed);
  out.factor_ns = stats_.factor_ns.load(std::memory_order_relaxed);
  out.certify_ns = stats_.certify_ns.load(std::memory_order_relaxed);
  out.pricing_sweep_ns =
      stats_.pricing_sweep_ns.load(std::memory_order_relaxed);
  out.colgen_solves = stats_.colgen_solves.load(std::memory_order_relaxed);
  out.colgen_rounds = stats_.colgen_rounds.load(std::memory_order_relaxed);
  out.colgen_columns_generated =
      stats_.colgen_columns_generated.load(std::memory_order_relaxed);
  return out;
}

ExactSolution ExactSolver::solve(const Model& model,
                                 SolveContext* context) const {
  ExactSolution out = solve_impl(model, context);
  record_solve(out, context);
  return out;
}

Parallel ExactSolver::solve_parallel(const SolveContext* context) const {
  const std::size_t requested =
      context && context->threads != 0 ? context->threads : options_.threads;
  const std::size_t budget = resolve_threads(requested);
  if (budget <= 1) return Parallel::serial();
  ThreadPool& pool = options_.pool ? *options_.pool : ThreadPool::shared();
  return Parallel::with(pool, budget);
}

namespace {

/// Mirrors one finished solve into the process-wide registry: counters the
/// Prometheus/JSON expositions serve, plus per-phase latency histograms
/// (the registry-backed replacement for eyeballing SolvePhaseTimes). All
/// bumps share one Batch so a concurrent snapshot sees the whole solve or
/// none of it.
void publish_solve(const ExactSolution& out) {
  obs::Registry& reg = obs::Registry::global();
  obs::Registry::Batch batch(reg);
  reg.counter("solver_solves", "completed exact solves").add(1);
  reg.counter("solver_float_pivots").add(out.float_iterations);
  reg.counter("solver_exact_pivots").add(out.exact_iterations);
  if (out.warm_started) reg.counter("solver_warm_solves").add(1);
  if (out.exact_iterations > 0) reg.counter("solver_exact_fallbacks").add(1);
  reg.counter("solver_ftran_ns").add(out.phase_times.ftran_ns);
  reg.counter("solver_btran_ns").add(out.phase_times.btran_ns);
  reg.counter("solver_pricing_ns").add(out.phase_times.pricing_ns);
  reg.counter("solver_factor_ns").add(out.phase_times.factor_ns);
  reg.counter("solver_certify_ns").add(out.phase_times.certify_ns);
  reg.counter("solver_pricing_sweep_ns").add(out.phase_times.pricing_sweep_ns);
  reg.histogram("solver_certify_ms", "per-solve certification latency")
      .record(static_cast<double>(out.phase_times.certify_ns) / 1e6);
  reg.histogram("solver_factor_ms", "per-solve factorization latency")
      .record(static_cast<double>(out.phase_times.factor_ns) / 1e6);
  reg.histogram("solver_pricing_ms", "per-solve pricing latency")
      .record(static_cast<double>(out.phase_times.pricing_ns) / 1e6);
}

}  // namespace

void ExactSolver::record_solve(const ExactSolution& out,
                               const SolveContext* context) const {
  // Aggregate telemetry: relaxed atomics, safe under concurrent solves (see
  // the thread-safety contract in the header).
  stats_.solves.fetch_add(1, std::memory_order_relaxed);
  stats_.float_pivots.fetch_add(out.float_iterations,
                                std::memory_order_relaxed);
  stats_.exact_pivots.fetch_add(out.exact_iterations,
                                std::memory_order_relaxed);
  if (context && context->warm_attempted) {
    stats_.warm_attempts.fetch_add(1, std::memory_order_relaxed);
  }
  if (out.warm_started) {
    stats_.warm_solves.fetch_add(1, std::memory_order_relaxed);
  }
  if (out.exact_iterations > 0) {
    stats_.exact_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.ftran_ns.fetch_add(out.phase_times.ftran_ns,
                            std::memory_order_relaxed);
  stats_.btran_ns.fetch_add(out.phase_times.btran_ns,
                            std::memory_order_relaxed);
  stats_.pricing_ns.fetch_add(out.phase_times.pricing_ns,
                              std::memory_order_relaxed);
  stats_.factor_ns.fetch_add(out.phase_times.factor_ns,
                             std::memory_order_relaxed);
  stats_.certify_ns.fetch_add(out.phase_times.certify_ns,
                              std::memory_order_relaxed);
  stats_.pricing_sweep_ns.fetch_add(out.phase_times.pricing_sweep_ns,
                                    std::memory_order_relaxed);
  if (out.colgen_rounds > 0 || out.colgen_columns_total > 0) {
    stats_.colgen_solves.fetch_add(1, std::memory_order_relaxed);
    stats_.colgen_rounds.fetch_add(out.colgen_rounds,
                                   std::memory_order_relaxed);
    stats_.colgen_columns_generated.fetch_add(out.colgen_columns_generated,
                                              std::memory_order_relaxed);
  }
  publish_solve(out);
}

ExactSolution ExactSolver::solve_impl(const Model& model,
                                      SolveContext* context) const {
  OBS_SPAN("solve");
  ExactSolution out;
  ExpandedModel em = ExpandedModel::from(model);

  if (context) {
    context->warm_attempted = false;
    context->warm_used = false;
    context->cost_shifts = 0;
  }

  // Remember the basis that produced the final answer so the NEXT solve in
  // this context starts warm.
  auto remember = [&](const std::vector<BasisColumn>& basis) {
    if (context && !basis.empty()) {
      context->warm = capture_warm_start(model, basis);
    }
  };

  // Tries both exact certification paths on a float-optimal result; fills
  // and returns `out` on success (certify_float_result above).
  const Parallel par = solve_parallel(context);
  auto certify = [&](const SimplexResult<double>& fp) -> bool {
    OBS_SPAN("certify");
    const auto t0 = Clock::now();
    const bool ok = certify_float_result(em, fp, options_, out, par);
    out.phase_times.certify_ns += ns_since(t0);
    if (!ok) return false;
    remember(fp.basis);
    return true;
  };

  // Warm attempt: replay the context basis through the dual simplex. ANY
  // inconclusive or non-optimal warm outcome — including a tolerance-level
  // infeasible verdict, which a drifted stale basis can fake — falls back
  // to the cold float pass, so a warm start costs at most one extra
  // (cheap) float solve, never a wrong answer and never an unnecessary
  // trip through the exact simplex.
  if (context && !context->warm.empty()) {
    OBS_SPAN("warm");
    ColumnLayout layout = ColumnLayout::from(em);
    if (auto columns = map_warm_basis(context->warm, model, em, layout)) {
      context->warm_attempted = true;
      SimplexOptions warm_options = options_.simplex;
      warm_options.max_iterations = std::min(
          warm_options.max_iterations, warm_pivot_budget(em.rows.size()));
      DualSolveInfo info;
      SimplexResult<double> warm = solve_from_basis(
          em, std::move(layout), *columns, warm_options, &info);
      out.float_iterations += warm.iterations;
      out.phase_times += warm.phase_times;
      context->cost_shifts = info.cost_shifts;
      if (warm.status == SolveStatus::kOptimal) {
        if (certify(warm)) {
          context->warm_used = true;
          out.warm_started = true;
          return out;
        }
      }
      // Anything else — basis singular, stale past the pivot budget,
      // numerically hopeless, or a float-level infeasible/unbounded
      // verdict: fall through to the cold solve.
    }
  }

  const SimplexResult<double> fp = [&] {
    OBS_SPAN("float");
    return solve_simplex<double>(em, options_.simplex);
  }();
  out.float_iterations += fp.iterations;
  out.phase_times += fp.phase_times;
  if (fp.status == SolveStatus::kOptimal && certify(fp)) return out;

  if (!options_.allow_exact_fallback) {
    out.status = fp.status == SolveStatus::kOptimal
                     ? SolveStatus::kIterationLimit
                     : fp.status;
    out.method = "double-only(uncertified)";
    return out;
  }

  // Exact fallback. Also the path that *proves* infeasibility/unboundedness
  // reported by the double pass.
  OBS_SPAN("exact_fallback");
  SimplexResult<Rational> ex = solve_simplex<Rational>(em, options_.simplex);
  out.exact_iterations = ex.iterations;
  out.status = ex.status;
  out.method = fp.status == SolveStatus::kOptimal ? "double+exact-simplex"
                                                  : "exact-simplex";
  if (ex.status != SolveStatus::kOptimal) return out;
  out.primal = em.unshift(ex.primal);
  out.dual = std::move(ex.dual);
  out.objective = ex.objective + em.objective_constant;
  out.certified = true;
  remember(ex.basis);
  return out;
}

ExactSolution solve_exact_simplex(const Model& model,
                                  const SimplexOptions& options) {
  ExactSolution out;
  ExpandedModel em = ExpandedModel::from(model);
  SimplexResult<Rational> ex = solve_simplex<Rational>(em, options);
  out.exact_iterations = ex.iterations;
  out.status = ex.status;
  out.method = "exact-simplex";
  if (ex.status != SolveStatus::kOptimal) return out;
  out.primal = em.unshift(ex.primal);
  out.dual = std::move(ex.dual);
  out.objective = ex.objective + em.objective_constant;
  out.certified = true;
  return out;
}

}  // namespace ssco::lp
