#pragma once
// Exact LP solving with a floating-point warm start.
//
// The paper's pipeline needs *exact rational* optimal solutions: periods are
// LCMs of solution denominators (Sec. 3.1), reduction-tree weights must
// reconstitute the solution exactly (Theorem 1), and the asymptotic-
// optimality argument compares against the exact LP value. Solving a few
// thousand-variable LP purely in rational arithmetic is slow, so we use the
// classic certify-after-float scheme (as in QSopt_ex / exact SCIP):
//
//   1. solve in double precision (fast dense two-phase simplex);
//   2. round primal and dual solutions to rationals via continued fractions
//      (num/reconstruct.h) with a growing denominator cap;
//   3. verify an exact optimality certificate: primal feasibility, dual
//      feasibility, and exact equality of the primal and dual objectives
//      (weak duality turns that equality into a proof of optimality);
//   3b. if rounding fails (degenerate vertices with huge denominators),
//      recover the exact basic solution from the final basis: solve
//      B x_B = b and B' y = c_B exactly via double-LU + exact iterative
//      refinement + rational reconstruction (lp/exact_basis.h), then verify
//      the same certificate;
//   4. on failure, fall back to the exact rational simplex.
//
// The result is bit-exact and carries a `certified` flag describing which
// path proved it.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/parallel.h"
#include "lp/simplex.h"
#include "lp/warm_start.h"

namespace ssco::lp {

/// One restricted-master round of a column-generation solve (lp/colgen.h):
/// master size when the round priced, pivots it spent, and the float
/// objective it reached — the growth curve the examples/ walkthrough plots.
struct ColGenRoundStat {
  std::size_t columns = 0;
  std::size_t pivots = 0;
  double objective = 0.0;
};

struct ExactSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Exact optimal objective value (valid when status == kOptimal).
  Rational objective;
  /// Exact optimal point in the ORIGINAL variable space of the Model.
  std::vector<Rational> primal;
  /// Exact duals per expanded row (model rows first, bound rows after);
  /// empty when the exact-simplex fallback produced the solution directly.
  std::vector<Rational> dual;
  /// True when optimality was proven by an exact primal/dual certificate or
  /// by the exact simplex itself.
  bool certified = false;
  /// "double+certificate", "double+basis-verification", "exact-simplex",
  /// or "double+exact-simplex".
  std::string method;
  std::size_t float_iterations = 0;
  std::size_t exact_iterations = 0;
  /// True when the float pass was a warm re-solve from a previous basis
  /// (lp/dual_simplex.h) instead of a cold two-phase solve.
  bool warm_started = false;
  /// Column-generation telemetry (lp/colgen.h); all zero for dense solves.
  /// `colgen_columns_total` counts the IMPLICIT full model's columns, so
  /// total - seeded - generated columns were priced out without ever being
  /// materialized.
  std::size_t colgen_rounds = 0;
  std::size_t colgen_columns_seeded = 0;
  std::size_t colgen_columns_generated = 0;
  std::size_t colgen_columns_total = 0;
  /// Row generation (lp/colgen.h): rows of the implicit full model and how
  /// many the master had activated when the loop ended. Both zero when the
  /// oracle does not generate rows (then the master always holds every row).
  std::size_t colgen_rows_active = 0;
  std::size_t colgen_rows_total = 0;
  /// Pricing rounds that priced at Wentges-smoothed duals
  /// (ColGenOptions::stabilization).
  std::size_t colgen_stab_rounds = 0;
  /// Per-round trace of the restricted master's growth (colgen solves only).
  std::vector<ColGenRoundStat> colgen_round_log;
  /// FTRAN/BTRAN/pricing/factorization split of the float engine work this
  /// solve performed (warm attempt + cold pass combined).
  SolvePhaseTimes phase_times;
};

/// Carries warm-start state between consecutive solves: after a successful
/// solve the optimal basis is snapshotted into `warm` (keyed by names, so a
/// rebuilt model maps it back — lp/warm_start.h); the next solve made with
/// the same context replays it through the dual simplex. A default
/// constructed context is an empty (cold) one.
struct SolveContext {
  WarmStart warm;
  /// Per-request thread-budget override: 0 = use ExactSolverOptions::
  /// threads. The plan service sets this so that num_workers concurrent
  /// cold solves cannot oversubscribe the shared pool (each request gets
  /// roughly hardware / num_workers shards).
  std::size_t threads = 0;
  /// Telemetry of the most recent solve() made with this context.
  bool warm_attempted = false;
  bool warm_used = false;
  std::size_t cost_shifts = 0;
};

/// Pivot budget for a warm-started float pass on an `rows`-row expanded
/// model before giving up and going cold. A stale basis on a heavily
/// mutated platform can cost more pivots than a cold solve; the budget
/// bounds the downside of trying.
[[nodiscard]] constexpr std::size_t warm_pivot_budget(std::size_t rows) {
  return 2 * rows + 100;
}

struct ExactSolverOptions {
  /// Denominator caps tried, in order, when reconstructing rationals from the
  /// double solution.
  std::vector<std::uint64_t> denominator_caps = {1u << 12, 1u << 20, 1u << 26};
  /// Allow recovering the exact solution from the optimal double basis
  /// (double LU + exact iterative refinement; handles degenerate vertices
  /// whose coordinates have huge denominators).
  bool allow_basis_verification = true;
  /// Allow falling back to the exact rational simplex (can be slow on large
  /// instances but is always correct).
  bool allow_exact_fallback = true;
  /// Thread budget for the parallel column loops — certificate
  /// verification, exact basis recovery, colgen pricing sweeps
  /// (lp/parallel.h). 0 = all hardware threads, 1 = fully serial. Results
  /// are bit-identical at every setting (the fabric's determinism
  /// contract), so this is purely a wall-clock knob. Shards run on the
  /// process-wide shared pool unless `pool` overrides it.
  std::size_t threads = 0;
  /// Pool override, mainly for tests that want a private pool of a given
  /// size; null = ThreadPool::shared(). Not owned; must outlive the solver.
  ThreadPool* pool = nullptr;
  SimplexOptions simplex;
};

/// Aggregate solve telemetry, accumulated across every solve() made on one
/// ExactSolver with relaxed atomics — safe to bump from concurrent solves
/// and to read at any time (each counter is individually consistent; the
/// set is not a snapshot). Per-solve numbers live in ExactSolution.
struct SolverStats {
  std::uint64_t solves = 0;
  std::uint64_t warm_attempts = 0;
  /// Warm attempts that produced the certified answer (no cold fallback).
  std::uint64_t warm_solves = 0;
  std::uint64_t float_pivots = 0;
  std::uint64_t exact_pivots = 0;
  /// Solves that needed the exact rational simplex.
  std::uint64_t exact_fallbacks = 0;
  /// Float-engine wall-clock split, summed over solves (render with
  /// io::millis): where the simplex time actually goes — FTRAN, BTRAN,
  /// pricing scans, LU refactorization.
  std::uint64_t ftran_ns = 0;
  std::uint64_t btran_ns = 0;
  std::uint64_t pricing_ns = 0;
  std::uint64_t factor_ns = 0;
  /// Exact-certification wall-clock (certificate reconstruction + basis
  /// verification), and the colgen pricing-sweep wall-clock (float rounds +
  /// the final exact sweep) — the two buckets the parallel fabric shards.
  std::uint64_t certify_ns = 0;
  std::uint64_t pricing_sweep_ns = 0;
  /// Column-generation totals (solve_colgen calls only).
  std::uint64_t colgen_solves = 0;
  std::uint64_t colgen_rounds = 0;
  std::uint64_t colgen_columns_generated = 0;
};

/// Thread-safety contract:
///  * An ExactSolver is immutable after construction apart from its atomic
///    stats block; solve() is const and re-entrant, so ONE solver may run
///    ANY number of concurrent solves (the plan service's worker pool does
///    exactly this).
///  * Each solve may itself be INTERNALLY parallel: the certificate
///    verification and pricing sweeps shard across the process-wide
///    ThreadPool (lp/parallel.h) under the solve's thread budget
///    (ExactSolverOptions::threads, overridable per request via
///    SolveContext::threads). Shards touch only solve-local state — each
///    carries its own BasisLu::Workspace and rational scratch — so
///    concurrent solves sharing the pool never share mutable data, and a
///    request's budget bounds its concurrency (the plan service budgets
///    hardware / num_workers per request so cold-solve parallelism cannot
///    oversubscribe the pool).
///  * Each concurrent solve must use its OWN SolveContext (or none) — a
///    SolveContext is the single-threaded warm-start thread of one request
///    stream, and sharing one across threads is a data race.
///  * Per-solve statistics are returned by value in ExactSolution;
///    stats() aggregates across threads with relaxed atomics.
///  * Results are BIT-IDENTICAL at every thread budget: shard boundaries
///    are deterministic and merges are ordered (exact rational partials are
///    grouping-invariant; float candidate lists merge in serial scan
///    order). See DESIGN.md "Parallel solve fabric".
struct ColGenOptions;   // lp/colgen.h
class PricingOracle;    // lp/colgen.h

class ExactSolver {
 public:
  explicit ExactSolver(ExactSolverOptions options = {})
      : options_(std::move(options)) {}

  /// Maximizes the model's objective. Throws std::runtime_error only on
  /// internal invariant violations; infeasible/unbounded models are reported
  /// through `status`.
  [[nodiscard]] ExactSolution solve(const Model& model) const;

  /// Same, threading warm-start state through `context` (may be null): a
  /// non-empty context basis warm-starts the float pass via the dual
  /// simplex, and the new optimal basis is written back on success. The
  /// certificate paths are identical to the cold solve — a warm start can
  /// cost a fallback, never a wrong answer.
  [[nodiscard]] ExactSolution solve(const Model& model,
                                    SolveContext* context) const;

  /// Delayed column generation against the implicit model the oracle
  /// describes (lp/colgen.h, defined in colgen.cpp): `master` holds the
  /// restricted master — ALL rows of the full model, a seed subset of its
  /// columns — and GROWS as pricing finds violated columns. `certified ==
  /// true` still means bit-exact optimality of the COMPLETE model: on top
  /// of the restricted certificate, one exact-rational pricing sweep proves
  /// every never-materialized column has non-negative reduced cost. Falls
  /// back to materializing the full model (correctness is never entrusted
  /// to the float pricing loop).
  [[nodiscard]] ExactSolution solve_colgen(Model& master,
                                           PricingOracle& oracle,
                                           const ColGenOptions& colgen,
                                           SolveContext* context = nullptr) const;

  /// Consistent-per-counter snapshot of the aggregate stats (see
  /// SolverStats; values only grow).
  [[nodiscard]] SolverStats stats() const;

  /// Verifies an exact primal/dual optimality certificate for the expanded
  /// model: returns true iff `x` is primal feasible, `y` is dual feasible,
  /// and c'x == b'y (all exact). Exposed for tests.
  [[nodiscard]] static bool verify_certificate(const ExpandedModel& em,
                                               const std::vector<Rational>& x,
                                               const std::vector<Rational>& y);
  /// Same, sharding the per-row feasibility checks and per-column
  /// reduced-cost checks across `parallel` (bit-identical verdict — every
  /// check is independent and the objective partials combine exactly).
  [[nodiscard]] static bool verify_certificate(const ExpandedModel& em,
                                               const std::vector<Rational>& x,
                                               const std::vector<Rational>& y,
                                               const Parallel& parallel);

  [[nodiscard]] const ExactSolverOptions& options() const { return options_; }

 private:
  [[nodiscard]] ExactSolution solve_impl(const Model& model,
                                         SolveContext* context) const;
  /// Resolves this solve's Parallel handle: the context's thread budget if
  /// set, else the options', on the injected pool or the shared one.
  [[nodiscard]] Parallel solve_parallel(const SolveContext* context) const;
  /// Folds one finished solve into the atomic stats block (shared by
  /// solve() and solve_colgen()).
  void record_solve(const ExactSolution& solution,
                    const SolveContext* context) const;

  ExactSolverOptions options_;
  struct AtomicStats {
    std::atomic<std::uint64_t> solves{0};
    std::atomic<std::uint64_t> warm_attempts{0};
    std::atomic<std::uint64_t> warm_solves{0};
    std::atomic<std::uint64_t> float_pivots{0};
    std::atomic<std::uint64_t> exact_pivots{0};
    std::atomic<std::uint64_t> exact_fallbacks{0};
    std::atomic<std::uint64_t> ftran_ns{0};
    std::atomic<std::uint64_t> btran_ns{0};
    std::atomic<std::uint64_t> pricing_ns{0};
    std::atomic<std::uint64_t> factor_ns{0};
    std::atomic<std::uint64_t> certify_ns{0};
    std::atomic<std::uint64_t> pricing_sweep_ns{0};
    std::atomic<std::uint64_t> colgen_solves{0};
    std::atomic<std::uint64_t> colgen_rounds{0};
    std::atomic<std::uint64_t> colgen_columns_generated{0};
  };
  mutable AtomicStats stats_;
};

/// Runs the exact certification ladder — rational reconstruction of the
/// float primal/dual pair at the configured denominator caps, then exact
/// recovery from the optimal basis (lp/exact_basis.h) — on a float-OPTIMAL
/// SimplexResult for `em`. On success fills `out`'s status / objective /
/// primal (original variable space) / dual / certified / method and
/// returns true; `out` is untouched on failure. Shared by ExactSolver's
/// cold, warm and column-generation paths.
[[nodiscard]] bool certify_float_result(const ExpandedModel& em,
                                        const SimplexResult<double>& fp,
                                        const ExactSolverOptions& options,
                                        ExactSolution& out,
                                        const Parallel& parallel = {});

/// Convenience: solve `model` purely with the exact rational simplex
/// (no floating-point involved). Used as ground truth in tests.
[[nodiscard]] ExactSolution solve_exact_simplex(const Model& model,
                                                const SimplexOptions& options = {});

}  // namespace ssco::lp
