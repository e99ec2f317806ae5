#include "lp/colgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "lp/column_layout.h"
#include "lp/revised_simplex.h"
#include "lp/warm_start.h"
#include "obs/trace.h"

namespace ssco::lp {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Largest restricted master the inline exact-rational tableau may be asked
/// to rescue (rows); beyond it the dense tableau's O(m * cols) rational
/// storage is a memory bomb and the full-model fallback is the safer net.
constexpr std::size_t kExactMasterRowLimit = 1500;

/// Pricing rounds before giving up and materializing the full model.
constexpr std::size_t kMaxRounds = 64;
/// Columns the oracle may emit per float pricing call; the surplus beyond
/// the batch feeds the driver's column pool, which reprices and recycles
/// them in later rounds without another oracle scan.
constexpr std::size_t kEmit = 2048;
/// Float reduced-cost threshold for "violated". Termination never depends
/// on it — the exact sweep has the final word at tolerance zero.
constexpr double kPricingTolerance = 1e-7;
/// Objective-stagnant rounds before the batch doubles.
constexpr std::size_t kStallRounds = 4;
/// Per-round pivot cap as a fraction of the row count (plus a constant
/// floor), after which the round prices on the CURRENT basis's duals
/// instead of driving the master to optimality first. Unstabilized column
/// generation oscillates — successive restricted optima can be tens of
/// thousands of degenerate pivots apart while better columns would
/// short-circuit the plateau — and intermediate pricing only needs *some*
/// dual vector, not an optimal one: optimality is only ever claimed from
/// a round that reached the optimum AND priced clean, and the exact sweep
/// still has the final word. (Measured on the n=128 sparse reduce: an
/// uncapped loop burns 50k+ degenerate pivots chasing successive
/// restricted optima; 0.25 cuts the total 6x.)
constexpr double kRoundPivotFactor = 0.25;
constexpr std::size_t kRoundPivotFloor = 256;

/// Float reduced cost A'y - c of a not-yet-materialized column (`y` indexed
/// by the oracle's row space) — the driver's cheap reprice of pooled
/// candidates.
double reduced_cost(const GeneratedColumn& gc, const std::vector<double>& y) {
  double d = -gc.objective.to_double();
  for (const auto& [row, coeff] : gc.entries) {
    d += coeff.to_double() * y[row];
  }
  return d;
}

/// Most violated first, name as the deterministic tie-break.
void sort_by_violation(std::vector<std::pair<double, GeneratedColumn>>& cols) {
  std::sort(cols.begin(), cols.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.name < b.second.name;
  });
}

std::vector<std::pair<RowId, Rational>> row_entries(
    const std::vector<std::pair<std::size_t, Rational>>& entries) {
  std::vector<std::pair<RowId, Rational>> rows;
  rows.reserve(entries.size());
  for (const auto& [row, coeff] : entries) {
    rows.emplace_back(RowId{row}, coeff);
  }
  return rows;
}

/// Zero-feasibility of a row spec: does the row hold when every column is
/// zero? The activation gate of RevisedSimplex::append_row and the condition
/// under which a never-activated row is satisfied by the zero extension.
bool zero_feasible(const GeneratedRow& spec) {
  const int s = spec.rhs.signum();
  switch (spec.sense) {
    case Sense::kLessEqual:
      return s >= 0;
    case Sense::kGreaterEqual:
      return s <= 0;
    case Sense::kEqual:
      return s == 0;
  }
  return false;
}

}  // namespace

ExactSolution ExactSolver::solve_colgen(Model& master, PricingOracle& oracle,
                                        const ColGenOptions& colgen,
                                        SolveContext* context) const {
  ExactSolution out;
  const std::size_t seeded = master.num_variables();
  out.colgen_columns_seeded = seeded;
  out.colgen_columns_total = oracle.total_columns();

  if (context) {
    context->warm_attempted = false;
    context->warm_used = false;
    context->cost_shifts = 0;
  }

  ExpandedModel em = ExpandedModel::from(master);
  const Parallel par = solve_parallel(context);
  oracle.set_parallel(par);

  // --- Row generation state. ----------------------------------------------
  // Under row generation the oracle speaks FULL row ids; the driver owns the
  // full-to-master map, activates a row the moment a materialized column
  // first touches it, and lifts duals back to full space (zeros at inactive
  // rows) for every pricing call.
  constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  const std::size_t full_rows = oracle.full_row_count();
  const bool rowgen = full_rows != 0;
  std::vector<std::size_t> full_to_master;
  std::size_t rows_active = 0;
  if (rowgen) {
    full_to_master.assign(full_rows, kInactive);
    const std::vector<std::size_t> origins = oracle.master_row_origins();
    for (std::size_t mrow = 0; mrow < origins.size(); ++mrow) {
      full_to_master[origins[mrow]] = mrow;
    }
    rows_active = origins.size();
    out.colgen_rows_total = full_rows;
  }
  out.colgen_rows_active = rows_active;

  // Times of engines already torn down (an abandoned warm attempt); the
  // live engine's cumulative clock is added on top at every exit. The
  // certification / pricing-sweep buckets are the driver's own (the engine
  // never touches them) and are carried across the resync.
  SolvePhaseTimes retired_times;
  std::uint64_t certify_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::optional<RevisedSimplex> engine;
  auto sync_times = [&] {
    out.phase_times = retired_times;
    if (engine) out.phase_times += engine->phase_times();
    out.phase_times.certify_ns = certify_ns;
    out.phase_times.pricing_sweep_ns = sweep_ns;
  };

  // Master-row-space entries of a generated column (identity copy when the
  // oracle does not generate rows). Every full row referenced must already
  // be active; activation order differs from full-row order, so the
  // translated entries are re-sorted to honour the ascending-row contract
  // of ExpandedModel::append_column.
  auto master_entries = [&](const GeneratedColumn& gc) {
    if (!rowgen) return gc.entries;
    std::vector<std::pair<std::size_t, Rational>> entries;
    entries.reserve(gc.entries.size());
    for (const auto& [row, coeff] : gc.entries) {
      entries.emplace_back(full_to_master[row], coeff);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return entries;
  };

  // Correctness net for every inconclusive outcome: materialize the full
  // model — all rows, all columns — and run the dense paths (which also own
  // the exact infeasibility / unboundedness proofs). Column generation may
  // only ever cost this fallback, never a wrong or silently-restricted
  // answer.
  auto full_fallback = [&]() -> ExactSolution {
    sync_times();
    out.colgen_columns_generated = master.num_variables() - seeded;
    out.colgen_rows_active = rows_active;
    if (rowgen) {
      // The dense path re-expands the master from scratch, so the
      // never-activated rows only need to exist in the MASTER (ascending
      // full-row order keeps the completion deterministic).
      for (std::size_t r = 0; r < full_rows; ++r) {
        if (full_to_master[r] != kInactive) continue;
        GeneratedRow spec = oracle.row_spec(r);
        full_to_master[r] = master
                                .add_constraint(LinearExpr{}, spec.sense,
                                                spec.rhs, std::move(spec.name))
                                .index;
      }
    }
    std::vector<GeneratedColumn> rest;
    oracle.materialize_all(rest);
    for (GeneratedColumn& gc : rest) {
      VarId v = master.add_column(gc.name, gc.objective,
                                  row_entries(master_entries(gc)));
      oracle.added(gc, v);
    }
    ExactSolution dense = solve_impl(master, context);
    dense.float_iterations += out.float_iterations;
    dense.exact_iterations += out.exact_iterations;
    dense.phase_times += out.phase_times;
    dense.colgen_rounds = out.colgen_rounds;
    dense.colgen_columns_seeded = seeded;
    dense.colgen_columns_generated = out.colgen_columns_generated;
    dense.colgen_columns_total = out.colgen_columns_total;
    dense.colgen_rows_active = out.colgen_rows_active;
    dense.colgen_rows_total = out.colgen_rows_total;
    dense.colgen_stab_rounds = out.colgen_stab_rounds;
    dense.colgen_round_log = std::move(out.colgen_round_log);
    dense.method = "colgen-fallback+" + dense.method;
    record_solve(dense, context);
    return dense;
  };

  // --- Engine setup: warm replay of the context basis, else cold. ---------
  bool warm_live = false;
  if (context && !context->warm.empty()) {
    ColumnLayout layout = ColumnLayout::from(em);
    if (auto columns = map_warm_basis(context->warm, master, em, layout)) {
      context->warm_attempted = true;
      engine.emplace(em, std::move(layout), /*defer_initial_factor=*/true,
                     options_.simplex.equilibrate);
      if (engine->load_basis(*columns)) {
        SimplexOptions warm_options = options_.simplex;
        warm_options.max_iterations = std::min(
            warm_options.max_iterations, warm_pivot_budget(em.rows.size()));
        std::vector<double> shifted = engine->phase2_costs();
        context->cost_shifts = engine->make_dual_feasible(shifted);
        std::size_t warm_iters = 0;
        SolveStatus dual =
            engine->dual_optimize(shifted, warm_options, warm_iters);
        out.float_iterations += warm_iters;
        // The first loop round's true-cost primal sweep repairs any dual-
        // tolerance drift and resumes seamlessly into column generation; a
        // boxed-at-upper vertex is the one state that sweep cannot price,
        // so hand it back to the cold start.
        warm_live = dual == SolveStatus::kOptimal && engine->ok() &&
                    !engine->has_boxed_at_upper();
      }
      if (!warm_live) {
        retired_times += engine->phase_times();
        engine.reset();
      }
    }
  }
  if (!engine) {
    engine.emplace(em, ColumnLayout::from(em), /*defer_initial_factor=*/false,
                   options_.simplex.equilibrate);
    if (!engine->ok()) return full_fallback();
    if (engine->has_artificials() &&
        engine->infeasibility() > RevisedSimplex::kFeasTol) {
      SolveStatus s1 = engine->optimize(engine->phase1_costs(),
                                        options_.simplex,
                                        out.float_iterations);
      if (s1 == SolveStatus::kIterationLimit) return full_fallback();
      if (engine->infeasibility() > RevisedSimplex::kFeasTol) {
        // An infeasible RESTRICTED master proves nothing — absent columns
        // can restore feasibility — so only the full model may judge.
        return full_fallback();
      }
      engine->expel_artificials();
    }
  }

  // Activates full row `r` across the whole stack: master, expanded model
  // and the live engine (which extends its basis block-diagonally — no
  // refactorization, no phase 1). False means the row is not zero-feasible
  // and the caller must take the dense fallback.
  auto activate_row = [&](std::size_t r) -> bool {
    if (full_to_master[r] != kInactive) return true;
    if (em.rows.size() != em.num_model_rows) return false;  // bound rows
    GeneratedRow spec = oracle.row_spec(r);
    if (!zero_feasible(spec)) return false;
    const RowId rid =
        master.add_constraint(LinearExpr{}, spec.sense, spec.rhs, spec.name);
    const std::size_t mrow = em.append_row(spec.sense, spec.rhs);
    if (mrow != rid.index) return false;
    if (!engine->append_row(spec.sense, spec.rhs)) return false;
    full_to_master[r] = mrow;
    ++rows_active;
    return true;
  };

  // --- The solve -> price -> append loop. ---------------------------------
  // `pool` holds oracle-emitted candidates that did not make a batch; the
  // driver reprices them against fresh duals (cheap — it has the entries)
  // before asking the oracle for more.
  std::vector<GeneratedColumn> pool;
  std::unordered_set<std::string> pooled;
  std::size_t batch = std::max<std::size_t>(1, colgen.batch);
  double last_objective = -std::numeric_limits<double>::infinity();
  std::size_t stagnant = 0;

  // Wentges smoothing state: the dual vector (oracle row space) of the best
  // master objective seen so far.
  const double alpha = std::clamp(colgen.stabilization, 0.0, 0.99);
  std::vector<double> y_center;
  double center_objective = -std::numeric_limits<double>::infinity();

  auto append_all = [&](std::vector<GeneratedColumn>& cols) -> bool {
    for (GeneratedColumn& gc : cols) {
      if (rowgen) {
        // Activate the column's rows first (entry order — ascending full
        // row ids — keeps the master layout deterministic): the invariant
        // that every materialized column's support lies in active rows.
        for (const auto& [row, coeff] : gc.entries) {
          if (!activate_row(row)) return false;
        }
      }
      const auto entries = master_entries(gc);
      VarId v = master.add_column(gc.name, gc.objective, row_entries(entries));
      const std::size_t var = em.append_column(gc.objective, entries);
      if (var != v.index) return false;
      if (engine->append_column(var, entries) == RevisedSimplex::kNone ||
          !engine->ok()) {
        return false;
      }
      oracle.added(gc, v);
    }
    return true;
  };

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    obs::SpanGuard round_span("colgen_round", "solver");
    round_span.set_arg(round);
    std::vector<double> cost = engine->phase2_costs();
    const std::size_t pivots_before = out.float_iterations;
    SimplexOptions round_options = options_.simplex;
    // Row generation grows the master's row space mid-loop, so the pivot
    // budget tracks the CURRENT row count.
    const std::size_t round_budget = std::max(
        kRoundPivotFloor,
        static_cast<std::size_t>(kRoundPivotFactor *
                                 static_cast<double>(em.rows.size())));
    round_options.max_iterations = std::min(
        round_options.max_iterations, out.float_iterations + round_budget);
    SolveStatus status =
        engine->optimize(cost, round_options, out.float_iterations);
    out.colgen_round_log.push_back({master.num_variables(),
                                    out.float_iterations - pivots_before,
                                    engine->objective_value(cost)});
    // A budget-capped round is NOT a failure: the current basis's duals
    // price absent columns perfectly well (only final optimality claims
    // need an optimal, cleanly-priced master), and better columns usually
    // short-circuit the degenerate plateau the cap interrupted.
    const bool round_optimal = status == SolveStatus::kOptimal;
    if (!round_optimal && (status != SolveStatus::kIterationLimit ||
                           out.float_iterations >=
                               options_.simplex.max_iterations)) {
      return full_fallback();
    }
    engine->refresh();
    if (!engine->ok()) return full_fallback();
    ++out.colgen_rounds;

    const std::vector<double> duals = engine->extract_duals(cost);
    // True pricing duals in the ORACLE's row space: full-model rows with
    // zeros at inactive rows under row generation, the master's model rows
    // otherwise.
    std::vector<double> y;
    if (rowgen) {
      y.assign(full_rows, 0.0);
      for (std::size_t r = 0; r < full_rows; ++r) {
        if (full_to_master[r] != kInactive) y[r] = duals[full_to_master[r]];
      }
    } else {
      y.assign(duals.begin(), duals.begin() + em.num_model_rows);
    }

    // Smoothing center: adopt the duals of any strictly-improving round.
    const double objective = out.colgen_round_log.back().objective;
    bool center_updated = false;
    if (y_center.empty() || objective > center_objective) {
      y_center = y;
      center_objective = objective;
      center_updated = true;
    }

    // One pricing pass at the given duals: reprice the pool, then top up
    // from the oracle; most violated first.
    auto collect = [&](const std::vector<double>& yp) {
      std::vector<std::pair<double, GeneratedColumn>> candidates;
      for (GeneratedColumn& gc : pool) {
        const double d = reduced_cost(gc, yp);
        if (d < -kPricingTolerance) {
          candidates.emplace_back(d, std::move(gc));
        } else {
          pooled.erase(gc.name);  // priced out; the oracle may re-emit later
        }
      }
      pool.clear();
      if (candidates.size() < batch) {
        std::vector<GeneratedColumn> emitted;
        oracle.price(yp, kPricingTolerance, std::max(kEmit, batch), emitted);
        for (GeneratedColumn& gc : emitted) {
          if (pooled.contains(gc.name)) continue;  // already a candidate
          candidates.emplace_back(reduced_cost(gc, yp), std::move(gc));
        }
      }
      sort_by_violation(candidates);
      return candidates;
    };

    std::vector<std::pair<double, GeneratedColumn>> candidates;
    {
      OBS_SPAN("pricing_sweep");
      const auto sweep_t0 = Clock::now();
      // Smooth towards the center unless this round IS the center (then the
      // smoothed vector equals y and the pass would be a no-op duplicate).
      if (alpha > 0.0 && !center_updated) {
        std::vector<double> y_s(y.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
          y_s[i] = alpha * y_center[i] + (1.0 - alpha) * y[i];
        }
        candidates = collect(y_s);
        ++out.colgen_stab_rounds;
        if (candidates.empty()) {
          // Misprice: the smoothed duals see nothing, but only the TRUE
          // duals may conclude the round found nothing to add.
          candidates = collect(y);
        }
      } else {
        candidates = collect(y);
      }
      sweep_ns += ns_since(sweep_t0);
    }

    if (!candidates.empty()) {
      // Append the best `batch`; pool the rest for later rounds.
      std::vector<GeneratedColumn> fresh;
      for (auto& [d, gc] : candidates) {
        if (fresh.size() < batch) {
          pooled.erase(gc.name);
          fresh.push_back(std::move(gc));
        } else {
          pooled.insert(gc.name);
          pool.push_back(std::move(gc));
        }
      }
      // Stall detection: a degenerate tail (columns keep coming, objective
      // does not move) converges faster with bigger batches. The objective
      // was read BEFORE the append: new columns enter nonbasic at zero, so
      // it cannot change — and after the append `cost` no longer covers
      // every column.
      if (!append_all(fresh)) return full_fallback();
      out.colgen_columns_generated = master.num_variables() - seeded;
      if (objective <=
          last_objective + 1e-12 * (1.0 + std::fabs(last_objective))) {
        if (++stagnant >= kStallRounds) {
          batch *= 2;
          stagnant = 0;
        }
      } else {
        stagnant = 0;
      }
      last_objective = objective;
      continue;
    }

    if (!round_optimal) continue;  // nothing to add: spend the next round's
                                   // budget driving the master onward

    // Float pricing is clean AND the master is optimal: certify it exactly,
    // then let the exact sweep over the implicit column set have the final
    // word.
    SimplexResult<double> fp;
    fp.status = SolveStatus::kOptimal;
    fp.primal = engine->extract_primal();
    fp.dual = duals;
    fp.objective = engine->objective_value(cost);
    fp.basis = engine->extract_basis();

    ExactSolution candidate;
    std::vector<Rational> exact_duals;
    std::string method;
    {
      OBS_SPAN("certify");
      const auto certify_t0 = Clock::now();
      if (certify_float_result(em, fp, options_, candidate, par)) {
        method = candidate.method == "double+certificate"
                     ? "colgen+certificate"
                     : "colgen+basis-verification";
      } else if (options_.allow_exact_fallback &&
                 em.rows.size() <= kExactMasterRowLimit) {
        // Uncertifiable float optimum: the exact rational simplex on the
        // (still small) restricted master recovers an exact pair.
        SimplexResult<Rational> ex =
            solve_simplex<Rational>(em, options_.simplex);
        out.exact_iterations += ex.iterations;
        if (ex.status != SolveStatus::kOptimal) {
          certify_ns += ns_since(certify_t0);
          return full_fallback();
        }
        candidate.status = SolveStatus::kOptimal;
        candidate.primal = em.unshift(ex.primal);
        candidate.dual = std::move(ex.dual);
        candidate.objective = ex.objective + em.objective_constant;
        candidate.certified = true;
        fp.basis = ex.basis;
        method = "colgen+exact-simplex";
      } else {
        certify_ns += ns_since(certify_t0);
        return full_fallback();
      }
      certify_ns += ns_since(certify_t0);
      // Exact duals lifted to the oracle's row space; under row generation
      // the zeros at inactive rows are exact by construction (the lifted
      // pair's dual feasibility over absent columns is what the sweep below
      // verifies).
      if (rowgen) {
        exact_duals.assign(full_rows, Rational(0));
        for (std::size_t r = 0; r < full_rows; ++r) {
          if (full_to_master[r] != kInactive) {
            exact_duals[r] = candidate.dual[full_to_master[r]];
          }
        }
      } else {
        exact_duals.assign(candidate.dual.begin(),
                           candidate.dual.begin() + em.num_model_rows);
      }
    }

    std::vector<GeneratedColumn> violated;
    {
      OBS_SPAN("pricing_sweep");
      const auto exact_sweep_t0 = Clock::now();
      oracle.price_exact(exact_duals, std::max(kEmit, batch), violated);
      sweep_ns += ns_since(exact_sweep_t0);
    }
    if (!violated.empty()) {
      // The float duals were optimistic; the exact sweep caught it. Append
      // the witnesses and keep iterating — this is what makes the float
      // loop an accelerator rather than a correctness assumption.
      if (!append_all(violated)) return full_fallback();
      out.colgen_columns_generated = master.num_variables() - seeded;
      continue;
    }

    if (rowgen) {
      // The certificate extends to the complete model only if the zero
      // extension satisfies every never-activated row (their duals are zero,
      // so they contribute nothing to b'y and complementary slackness holds
      // trivially). The interval skeletons pass by construction; a model
      // that does not must be judged dense.
      for (std::size_t r = 0; r < full_rows; ++r) {
        if (full_to_master[r] == kInactive &&
            !zero_feasible(oracle.row_spec(r))) {
          return full_fallback();
        }
      }
    }

    // Every absent column prices non-negative under the exact duals and
    // every inactive row holds at zero: the restricted certificate extends
    // to the complete model.
    out.status = SolveStatus::kOptimal;
    out.objective = std::move(candidate.objective);
    out.primal = std::move(candidate.primal);
    out.dual = rowgen ? std::move(exact_duals) : std::move(candidate.dual);
    out.certified = true;
    out.method = std::move(method);
    out.warm_started = warm_live;
    out.colgen_columns_generated = master.num_variables() - seeded;
    out.colgen_rows_active = rows_active;
    sync_times();
    if (context) {
      context->warm = capture_warm_start(master, fp.basis);
      context->warm_used = warm_live;
    }
    record_solve(out, context);
    return out;
  }
  return full_fallback();  // round budget exhausted
}

}  // namespace ssco::lp
