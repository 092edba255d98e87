// Engine subsystem tests: the SolverSession contract — cold solves
// bit-identical to the classic solver API, warm re-solves finding the
// same crossing set cheaper, one factorization per processed shift,
// and the enforcement loop's re-characterizations warm-started.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/engine/session.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using engine::SolverSession;
using macromodel::SimoRealization;

// Shared seeded-model fixture (tests/test_support.hpp).
macromodel::PoleResidueModel make_model(double peak, std::uint64_t seed,
                                        std::size_t states = 36,
                                        std::size_t ports = 3) {
  return test::synthetic_model(peak, seed, states, ports);
}

// ---- SolverSession ----------------------------------------------------

TEST(Session, ColdSolveMatchesClassicApiBitForBit) {
  const auto model = make_model(1.07, 20);
  const SimoRealization simo(model);
  core::SolverOptions opt;
  opt.threads = 1;

  const auto classic = core::ParallelHamiltonianEigensolver(simo).solve(opt);

  SolverSession session{SimoRealization(simo)};
  const auto report = passivity::characterize_passivity(session, opt);

  ASSERT_EQ(report.crossings.size(), classic.crossings.size());
  for (std::size_t i = 0; i < report.crossings.size(); ++i) {
    EXPECT_EQ(report.crossings[i], classic.crossings[i]);
  }
  ASSERT_EQ(report.solver.eigenvalues.size(), classic.eigenvalues.size());
  for (std::size_t i = 0; i < classic.eigenvalues.size(); ++i) {
    EXPECT_EQ(report.solver.eigenvalues[i], classic.eigenvalues[i]);
  }
  EXPECT_EQ(report.solver.total_matvecs, classic.total_matvecs);
  EXPECT_EQ(report.solver.shifts_processed, classic.shifts_processed);
  EXPECT_EQ(report.solver.factorizations, classic.factorizations);
  EXPECT_FALSE(report.solver.warm_started);
}

TEST(Session, SameRevisionResolveIsWarmAndCheaper) {
  const auto model = make_model(1.07, 21);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;

  const auto cold = session.solve(opt);
  ASSERT_FALSE(cold.warm_started);
  ASSERT_GT(cold.factorizations, 0u);
  ASSERT_GT(cold.lambda_max_matvecs, 0u);

  const auto warm = session.solve(opt);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GT(warm.seeded_shifts, 0u);
  // Identical revision: the previous disk plan is re-solved, so the
  // band estimate is skipped.
  EXPECT_EQ(warm.lambda_max_matvecs, 0u);
  EXPECT_LT(warm.total_matvecs, cold.total_matvecs);

  const double tol = 1e-5 * model.max_pole_magnitude();
  EXPECT_TRUE(test::frequencies_match(warm.crossings, cold.crossings, tol));
}

TEST(Session, EveryShiftBuildsOneFactorization) {
  // Each processed shift builds its own shift-and-invert operator —
  // cold, same-revision warm and post-update warm alike — and the
  // session's total is the sum over its solves.
  const auto model = make_model(1.07, 22);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;

  const auto cold = session.solve(opt);
  const auto same = session.solve(opt);
  la::RealMatrix c = session.realization().c();
  c *= 0.995;
  session.update_residues(c);
  const auto next = session.solve(opt);
  ASSERT_FALSE(cold.warm_started);
  ASSERT_TRUE(same.warm_started);
  ASSERT_TRUE(next.warm_started);

  std::size_t total = 0;
  for (const core::SolverResult* r : {&cold, &same, &next}) {
    EXPECT_GT(r->shifts_processed, 0u);
    EXPECT_EQ(r->factorizations, r->shifts_processed);
    total += r->factorizations;
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.solves, 3u);
  EXPECT_EQ(stats.factorizations, total);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, WarmResolveFindsSameOmegaAsColdSolve) {
  // Acceptance: on seeded non-passive models, the session-reused solve
  // after a residue perturbation finds the same crossing set (to
  // tolerance) as a from-scratch cold solve of the perturbed model.
  const auto model = make_model(1.05 + 0.01 * GetParam(), 30 + GetParam());
  const SimoRealization simo(model);
  const double tol = 1e-5 * model.max_pole_magnitude();
  core::SolverOptions opt;
  opt.threads = 2;

  SolverSession session{SimoRealization(simo)};
  const auto before = session.solve(opt);
  ASSERT_FALSE(before.passive);

  // Small residue perturbation (what one enforcement step does).
  SimoRealization perturbed(simo);
  la::RealMatrix c = perturbed.c();
  c *= 0.995;
  perturbed.c() = c;
  session.update_residues(c);

  const auto warm = session.solve(opt);
  EXPECT_TRUE(warm.warm_started);

  SolverSession cold_session{SimoRealization(perturbed)};
  const auto cold = cold_session.solve(opt);
  EXPECT_TRUE(test::frequencies_match(warm.crossings, cold.crossings, tol))
      << "warm found " << warm.crossings.size() << " vs cold "
      << cold.crossings.size();
}

INSTANTIATE_TEST_SUITE_P(Models, SessionEquivalence, ::testing::Range(0, 3));

TEST(Session, UpdateResiduesBumpsRevisionAndKeepsWarmStart) {
  const auto model = make_model(1.06, 40, 24, 2);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;
  (void)session.solve(opt);
  ASSERT_EQ(session.revision(), 0u);

  la::RealMatrix c = session.realization().c();
  c *= 0.99;
  session.update_residues(c);
  EXPECT_EQ(session.revision(), 1u);
  EXPECT_EQ(test::max_abs_diff(session.realization().c(), c), 0.0);
  // The warm-start record survives the revision bump.
  EXPECT_TRUE(session.warm_start().valid);
  EXPECT_EQ(session.warm_start().revision, 0u);
}

TEST(Session, ExplicitBandLimitNeverBecomesADefaultBandHint) {
  // A caller-truncated band must not cap a later default-band solve.
  const auto model = make_model(1.06, 46, 24, 2);
  SolverSession session(model);
  core::SolverOptions narrow;
  narrow.threads = 1;
  narrow.omega_max = 0.5 * model.max_pole_magnitude();
  (void)session.solve(narrow);

  core::SolverOptions full;
  full.threads = 1;
  const auto res = session.solve(full);
  EXPECT_GT(res.lambda_max_matvecs, 0u)
      << "explicit omega_max leaked into the default-band search";
  EXPECT_GT(res.omega_max, narrow.omega_max);
}

TEST(Session, LargeResidueDriftReestimatesTheBand) {
  // The band hint must not go stale: a large cumulative residue change
  // forces a fresh |lambda|max estimate instead of trusting the edge
  // recorded before the perturbations.
  const auto model = make_model(1.06, 45, 24, 2);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;
  (void)session.solve(opt);

  la::RealMatrix c = session.realization().c();
  c *= 1.5;  // far beyond the estimate's 5% safety factor
  session.update_residues(c);
  const auto warm = session.solve(opt);
  EXPECT_GT(warm.lambda_max_matvecs, 0u)
      << "stale band hint accepted after a 50% residue change";

  // Small drifts keep the hint (and skip the estimate).
  la::RealMatrix c2 = session.realization().c();
  c2 *= 1.001;
  session.update_residues(c2);
  const auto warm2 = session.solve(opt);
  EXPECT_EQ(warm2.lambda_max_matvecs, 0u);
}

TEST(Session, EnforcementRecharacterizationsAreWarmAndCheaper) {
  // On a non-passive demo model, the enforcement loop's second and
  // later characterizations are warm-started and spend strictly fewer
  // total matvecs than the initial cold characterization.
  const auto model = make_model(1.15, 70);
  SolverSession session(model);

  passivity::EnforcementOptions eopt;
  eopt.solver.threads = 1;
  const auto result = passivity::enforce_passivity(session, eopt);
  EXPECT_TRUE(result.success);
  ASSERT_GE(result.history.size(), 3u)
      << "model enforced too quickly; pick a stronger violation";

  const auto& first = result.history.front();
  EXPECT_FALSE(first.warm_started);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    const auto& round = result.history[i];
    EXPECT_TRUE(round.warm_started) << "round " << i;
    EXPECT_LT(round.solver_matvecs, first.solver_matvecs) << "round " << i;
  }
  EXPECT_EQ(result.characterizations, result.history.size());
}

}  // namespace
}  // namespace phes
