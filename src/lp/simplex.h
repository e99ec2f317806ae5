#pragma once
// Two-phase primal simplex, templated on the scalar type.
//
// The same algorithm runs in two arithmetic regimes with two engines:
//  * `double` — fast warm-start pass used by ExactSolver, implemented as a
//    sparse revised simplex with an LU-factorized basis (lp/revised_simplex.h);
//  * `num::Rational` — exact arithmetic on a dense tableau, used directly on
//    small instances and as the fallback when rational reconstruction of the
//    double solution fails its optimality certificate.
//
// Entering-variable selection is Dantzig's rule with an automatic switch to
// Bland's rule (guaranteed anti-cycling) after a degeneracy threshold.
//
// The solver consumes an ExpandedModel: lower bounds shifted to zero, upper
// bounds materialized as rows, every row's RHS made non-negative. Duals are
// reported in the *expanded* row space with the sign convention
//   max c'x,  <= rows: y >= 0,  >= rows: y <= 0,  == rows: y free,
// so that dual feasibility reads  A' y >= c  and weak duality  c'x <= b'y.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.h"
#include "num/rational.h"

namespace ssco::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] std::string to_string(SolveStatus s);

/// Model rewritten so every variable is >= 0 and every upper bound is a row.
/// This is the canonical space in which the simplex and the exact duality
/// certificate operate.
struct ExpandedModel {
  std::size_t num_vars = 0;
  // Row-major sparse rows over shifted variables.
  struct Row {
    std::vector<std::pair<std::size_t, Rational>> coeffs;
    Sense sense = Sense::kLessEqual;
    Rational rhs;
  };
  std::vector<Row> rows;
  std::vector<Rational> objective;  // per shifted variable
  Rational objective_constant;      // from lower-bound shifts
  std::vector<Rational> shift;      // original x = shifted x' + shift

  /// First `model.num_rows()` expanded rows mirror the model rows (same
  /// order); upper-bound rows follow.
  std::size_t num_model_rows = 0;

  static ExpandedModel from(const Model& model);

  /// Column-generation append, mirroring Model::add_column: a new variable
  /// with zero lower bound, no upper bound, and coefficients in EXISTING
  /// model rows (entries indexed by model row, all < num_model_rows, in
  /// increasing row order per contract of the pricing oracle). Shift is
  /// zero, so the objective constant and every existing row's RHS are
  /// untouched; no bound row is materialized, so the row space — and any
  /// live basis over it — keeps its dimension. Returns the variable index.
  std::size_t append_column(
      const Rational& objective,
      const std::vector<std::pair<std::size_t, Rational>>& entries);

  /// Row-generation append, mirroring Model::add_constraint on an EMPTY
  /// row: a new model row with no coefficients in any existing column (the
  /// activation invariant of lp/colgen.h row generation). Only valid while
  /// the expansion materialized no bound rows — model rows must stay a
  /// prefix — which holds for the colgen masters (generated columns carry
  /// no upper bounds); throws std::logic_error otherwise. Returns the new
  /// row index (== old num_model_rows).
  std::size_t append_row(Sense sense, const Rational& rhs);

  /// Maps a shifted-space point back to original variable space.
  [[nodiscard]] std::vector<Rational> unshift(
      const std::vector<Rational>& x_shifted) const;
};

/// Identity of one basic column of the final simplex basis, in terms of the
/// expanded model (used by ExactSolver's basis-verification path).
struct BasisColumn {
  enum class Kind { kStructural, kSlack, kSurplus, kArtificial };
  Kind kind = Kind::kStructural;
  /// Variable index for kStructural; expanded-row index otherwise.
  std::size_t index = 0;
};

/// Wall-clock breakdown of one float solve, accumulated by the revised
/// engine (the exact tableau leaves it zero). `pricing_ns` covers entering
/// selection; `factor_ns` is LU (re)factorization. The last two buckets are
/// filled by ExactSolver, not the engines: `certify_ns` is the exact
/// certificate ladder (rational reconstruction + basis verification) and
/// `pricing_sweep_ns` the column-generation pricing sweeps (float rounds
/// plus the final exact sweep) — the two column loops the parallel solve
/// fabric (lp/parallel.h) shards across threads.
struct SolvePhaseTimes {
  std::uint64_t ftran_ns = 0;
  std::uint64_t btran_ns = 0;
  std::uint64_t pricing_ns = 0;
  std::uint64_t factor_ns = 0;
  std::uint64_t certify_ns = 0;
  std::uint64_t pricing_sweep_ns = 0;
  /// Peak LU factor fill — nonzeros in L + U + diagonal — over every
  /// refactorization the solve performed. A size, not a time: it tracks how
  /// much fill the Gilbert–Peierls factorization admits on this model class
  /// (BENCH_lp.json gates it like the pivot counters), so it merges by max,
  /// not sum.
  std::size_t factor_fill = 0;

  SolvePhaseTimes& operator+=(const SolvePhaseTimes& o) {
    ftran_ns += o.ftran_ns;
    btran_ns += o.btran_ns;
    pricing_ns += o.pricing_ns;
    factor_ns += o.factor_ns;
    certify_ns += o.certify_ns;
    pricing_sweep_ns += o.pricing_sweep_ns;
    if (o.factor_fill > factor_fill) factor_fill = o.factor_fill;
    return *this;
  }
};

template <typename T>
struct SimplexResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  T objective{};              // in shifted space, EXCLUDING objective_constant
  std::vector<T> primal;      // shifted variables
  std::vector<T> dual;        // one per expanded row, original sign convention
  /// Final basis, one column per expanded row (valid when optimal).
  std::vector<BasisColumn> basis;
  std::size_t iterations = 0;
  /// FTRAN/BTRAN/pricing/factorization time split (double engine only).
  SolvePhaseTimes phase_times;
};

struct SimplexOptions {
  std::size_t max_iterations = 200000;
  /// Switch from rotating partial Dantzig pricing to Bland's rule (guaranteed
  /// anti-cycling) after this many CONSECUTIVE degenerate pivots; any
  /// progress switches back. Cycling consists solely of degenerate pivots,
  /// so the guarantee is preserved without condemning large instances to
  /// Bland's crawl.
  std::size_t bland_after = 1000;
  /// Apply power-of-two geometric-mean equilibration (lp/scaling.h) inside
  /// the double engine. Exactly undone on extraction; the rational tableau
  /// never scales.
  bool equilibrate = true;
};

/// Runs two-phase simplex on the expanded model using scalar type T.
/// T must be `double` or `num::Rational`.
///
/// The two scalar types select two different engines behind the same
/// contract: `double` runs the sparse revised simplex (LU-factorized basis,
/// lp/revised_simplex.h); `num::Rational` runs the dense exact tableau.
template <typename T>
SimplexResult<T> solve_simplex(const ExpandedModel& em,
                               const SimplexOptions& options = {});

template <>
SimplexResult<double> solve_simplex<double>(const ExpandedModel& em,
                                            const SimplexOptions& options);
extern template SimplexResult<num::Rational> solve_simplex<num::Rational>(
    const ExpandedModel&, const SimplexOptions&);

}  // namespace ssco::lp
