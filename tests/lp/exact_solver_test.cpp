#include "lp/exact_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "graph/rng.h"

namespace ssco::lp {
namespace {

using num::Rational;

Model classic() {
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(2)),
                   Sense::kLessEqual, Rational(4));
  m.add_constraint(LinearExpr().add(x, Rational(3)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(6));
  return m;
}

TEST(ExactSolver, CertifiesViaDoublePath) {
  auto sol = ExactSolver().solve(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+certificate");
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_EQ(sol.primal[0], Rational(8, 5));
  EXPECT_GT(sol.float_iterations, 0u);
  EXPECT_EQ(sol.exact_iterations, 0u);
}

TEST(ExactSolver, BasisVerificationRescuesFailedReconstruction) {
  // Denominator cap 2 cannot represent 8/5 or 6/5, so the rounding
  // certificate fails — but the exact basic solution recovered from the
  // optimal basis certifies without touching the exact simplex.
  ExactSolverOptions options;
  options.denominator_caps = {2};
  auto sol = ExactSolver(options).solve(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+basis-verification");
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_EQ(sol.primal[0], Rational(8, 5));
  EXPECT_EQ(sol.exact_iterations, 0u);
}

TEST(ExactSolver, FallsBackWhenReconstructionImpossible) {
  // With basis verification also disabled, the exact simplex must take over
  // and still produce the exact optimum.
  ExactSolverOptions options;
  options.denominator_caps = {2};
  options.allow_basis_verification = false;
  auto sol = ExactSolver(options).solve(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.method, "double+exact-simplex");
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_GT(sol.exact_iterations, 0u);
}

TEST(ExactSolver, NoFallbackReportsHonestly) {
  ExactSolverOptions options;
  options.denominator_caps = {2};
  options.allow_basis_verification = false;
  options.allow_exact_fallback = false;
  auto sol = ExactSolver(options).solve(classic());
  EXPECT_NE(sol.status, SolveStatus::kOptimal);
  EXPECT_FALSE(sol.certified);
}

TEST(ExactSolver, InfeasibleProvenByExactPath) {
  // x <= 1 (bound row) conflicts with x >= 2: the rational simplex must be
  // the prover — never a float verdict.
  Model m;
  VarId x = m.add_variable("x", Rational(0), Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kGreaterEqual,
                   Rational(2));
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_EQ(sol.method, "exact-simplex");
}

TEST(ExactSolver, UnboundedDetected) {
  Model m;
  VarId x = m.add_variable("x");
  m.set_objective(x, Rational(1));
  auto sol = ExactSolver().solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(ExactSolver, ObjectiveConstantFromShiftedLowerBounds) {
  // max x + y, x in [2, 3], y in [1, 4], x + y <= 6 -> 6 (e.g. x=2..3).
  Model m;
  VarId x = m.add_variable("x", Rational(2), Rational(3));
  VarId y = m.add_variable("y", Rational(1), Rational(4));
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(6));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, Rational(6));
  EXPECT_GE(sol.primal[0], Rational(2));
  EXPECT_LE(sol.primal[0], Rational(3));
}

TEST(ExactSolver, CertificateRejectsWrongPrimal) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  // Correct duals for the optimum: y = (2/5, 1/5).
  std::vector<Rational> y{Rational(2, 5), Rational(1, 5)};
  std::vector<Rational> x_good{Rational(8, 5), Rational(6, 5)};
  std::vector<Rational> x_bad{Rational(1), Rational(1)};  // feasible, not opt
  EXPECT_TRUE(ExactSolver::verify_certificate(em, x_good, y));
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_bad, y));
}

TEST(ExactSolver, CertificateRejectsInfeasiblePoint) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  std::vector<Rational> y{Rational(2, 5), Rational(1, 5)};
  std::vector<Rational> x_infeasible{Rational(10), Rational(10)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_infeasible, y));
  std::vector<Rational> x_negative{Rational(-1), Rational(0)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x_negative, y));
}

TEST(ExactSolver, CertificateRejectsDualSignViolation) {
  Model m = classic();
  ExpandedModel em = ExpandedModel::from(m);
  std::vector<Rational> x{Rational(8, 5), Rational(6, 5)};
  std::vector<Rational> y_bad{Rational(-2, 5), Rational(1, 5)};
  EXPECT_FALSE(ExactSolver::verify_certificate(em, x, y_bad));
}

TEST(ExactSolver, PureExactEntrypoint) {
  auto sol = solve_exact_simplex(classic());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.objective, Rational(14, 5));
  EXPECT_EQ(sol.method, "exact-simplex");
}

TEST(ExactSolver, DegenerateVertexStillCertifies) {
  // Three constraints meeting at one optimal point (degenerate vertex).
  Model m;
  VarId x = m.add_variable("x");
  VarId y = m.add_variable("y");
  m.set_objective(x, Rational(1));
  m.set_objective(y, Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  m.add_constraint(LinearExpr().add(y, Rational(1)), Sense::kLessEqual,
                   Rational(1));
  m.add_constraint(LinearExpr().add(x, Rational(1)).add(y, Rational(1)),
                   Sense::kLessEqual, Rational(2));
  auto sol = ExactSolver().solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_TRUE(sol.certified);
  EXPECT_EQ(sol.objective, Rational(2));
}

TEST(ExactSolver, DegenerateModelRoundTrip) {
  // A degenerate optimum (redundant tight rows, zero-valued basics) with a
  // fixed variable, a forcing row, proportional duplicate rows and a dead
  // column. The captured basis must feed a warm start that certifies the
  // same objective.
  Model m;
  VarId a = m.add_variable("a");
  VarId b = m.add_variable("b");
  VarId c = m.add_variable("c");
  VarId dead = m.add_variable("dead");
  m.set_objective(a, Rational(2));
  m.set_objective(b, Rational(1));
  m.set_objective(dead, Rational(-1));
  m.add_constraint(LinearExpr().add(a, Rational(1)), Sense::kEqual,
                   Rational(1), "fix_a");
  m.add_constraint(LinearExpr().add(b, Rational(1)).add(c, Rational(1)),
                   Sense::kEqual, Rational(0), "force_bc");
  m.add_constraint(LinearExpr().add(a, Rational(1)).add(b, Rational(1)),
                   Sense::kLessEqual, Rational(1), "tight1");
  m.add_constraint(LinearExpr().add(a, Rational(2)).add(b, Rational(2)),
                   Sense::kLessEqual, Rational(2), "tight2");
  SolveContext context;
  auto first = ExactSolver().solve(m, &context);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_TRUE(first.certified);
  EXPECT_EQ(first.objective, Rational(2));
  EXPECT_EQ(first.objective, solve_exact_simplex(m).objective);
  ASSERT_FALSE(context.warm.empty());

  auto warm = ExactSolver().solve(m, &context);
  EXPECT_TRUE(warm.certified);
  EXPECT_TRUE(context.warm_attempted);
  EXPECT_EQ(warm.objective, first.objective);
}

TEST(ExactSolver, RandomizedAgreementSweep) {
  // Random small mixed-sense models, some of them infeasible: every solve
  // must reach the same status and certify the same exact objective as the
  // pure exact simplex.
  graph::Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const std::size_t nv = 3 + rng.uniform(0, 4);
    std::vector<VarId> vars;
    for (std::size_t j = 0; j < nv; ++j) {
      vars.push_back(m.add_variable("v" + std::to_string(j)));
      m.set_objective(vars.back(),
                      Rational(static_cast<std::int64_t>(rng.uniform(0, 4))));
    }
    const std::size_t nr = 2 + rng.uniform(0, 4);
    for (std::size_t i = 0; i < nr; ++i) {
      LinearExpr expr;
      for (const VarId v : vars) {
        if (rng.uniform(0, 2) == 0) continue;
        expr.add(v, Rational(static_cast<std::int64_t>(rng.uniform(1, 5))));
      }
      if (expr.empty()) expr.add(vars[0], Rational(1));
      const int kind = static_cast<int>(rng.uniform(0, 3));
      const Sense sense = kind == 0 ? Sense::kLessEqual
                          : kind == 1 ? Sense::kGreaterEqual
                                      : Sense::kEqual;
      // Mostly positive right-hand sides, some zero (forcing rows).
      const Rational rhs(
          static_cast<std::int64_t>(rng.uniform(0, 3) == 0 ? 0
                                                           : rng.uniform(1, 9)));
      m.add_constraint(expr, sense, rhs, "r" + std::to_string(i));
    }
    // Singleton == row fixing a variable on some trials.
    if (rng.uniform(0, 2) == 0) {
      m.add_constraint(LinearExpr().add(vars[0], Rational(2)), Sense::kEqual,
                       Rational(static_cast<std::int64_t>(rng.uniform(0, 5))),
                       "fix");
    }
    // Cap everything so the model cannot be unbounded.
    LinearExpr cap;
    for (const VarId v : vars) cap.add(v, Rational(1));
    m.add_constraint(cap, Sense::kLessEqual, Rational(20), "cap_all");

    auto fast = ExactSolver().solve(m);
    auto exact = solve_exact_simplex(m);
    ASSERT_EQ(fast.status, exact.status) << "trial " << trial;
    if (exact.status == SolveStatus::kOptimal) {
      EXPECT_TRUE(fast.certified) << "trial " << trial;
      EXPECT_EQ(fast.objective, exact.objective) << "trial " << trial;
    }
  }
}

TEST(ExactSolver, StatsAggregateAcrossConcurrentSolves) {
  // The documented contract: one solver, many concurrent solve() calls,
  // each with its own SolveContext; the atomic stats must not lose counts.
  const ExactSolver solver;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSolvesPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<std::size_t> optimal{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SolveContext context;
      for (std::size_t i = 0; i < kSolvesPerThread; ++i) {
        auto sol = solver.solve(classic(), &context);
        if (sol.status == SolveStatus::kOptimal && sol.certified &&
            sol.objective == Rational(14, 5)) {
          optimal.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(optimal.load(), kThreads * kSolvesPerThread);
  const SolverStats stats = solver.stats();
  EXPECT_EQ(stats.solves, kThreads * kSolvesPerThread);
  // Every solve after a thread's first replays that thread's context basis.
  EXPECT_EQ(stats.warm_attempts, kThreads * (kSolvesPerThread - 1));
  EXPECT_EQ(stats.warm_solves, stats.warm_attempts);
  EXPECT_GT(stats.float_pivots, 0u);
  EXPECT_EQ(stats.exact_fallbacks, 0u);
}

}  // namespace
}  // namespace ssco::lp
