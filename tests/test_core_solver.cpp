// Integration tests for the parallel Hamiltonian eigensolver: the
// crossing set Omega must match the dense-Schur ground truth for any
// thread count and both scheduling modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "phes/core/lambda_max.hpp"
#include "phes/core/solver.hpp"
#include "phes/engine/session.hpp"
#include "phes/hamiltonian/analysis.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using core::ParallelHamiltonianEigensolver;
using core::SchedulingMode;
using core::SolverOptions;
using la::RealVector;
using macromodel::SimoRealization;

struct Fixture {
  macromodel::PoleResidueModel model;
  SimoRealization simo;
  RealVector truth;  ///< dense-Schur crossing frequencies
  double scale;
};

/// Dense-Schur crossing frequencies of `simo`'s Hamiltonian.
RealVector dense_truth(const SimoRealization& simo, double scale) {
  auto m = hamiltonian::build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(std::move(m));
  return hamiltonian::extract_imaginary_frequencies(spectrum, 1e-8, scale);
}

Fixture make_fixture(double peak, std::uint64_t seed,
                     std::size_t states = 36, std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  auto model = macromodel::make_synthetic_model(spec);
  SimoRealization simo(model);
  const double scale = model.max_pole_magnitude();
  auto truth = dense_truth(simo, scale);
  return {std::move(model), std::move(simo), std::move(truth), scale};
}

class SolverAgainstTruth : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgainstTruth, SerialMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 600 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 1;
  opt.seed = 11 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale))
      << "found " << res.crossings.size() << " vs truth "
      << fx.truth.size();
  EXPECT_EQ(res.passive, fx.truth.empty());
}

TEST_P(SolverAgainstTruth, ParallelMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 700 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 4;
  opt.seed = 23 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale))
      << "found " << res.crossings.size() << " vs truth "
      << fx.truth.size();
}

TEST_P(SolverAgainstTruth, StaticGridMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 800 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 3;
  opt.scheduling = SchedulingMode::kStaticGrid;
  opt.seed = 31 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale));
  EXPECT_EQ(res.shifts_eliminated, 0u);
}

TEST_P(SolverAgainstTruth, SessionWarmResolvesMatchDenseSchur) {
  // The session's warm paths against the oracle: a cold solve, a
  // same-revision re-solve (replayed disks, confirmation restarts) and
  // a re-solve after a residue update (crossing seeds, reused band),
  // each checked against the dense-Schur crossings of the model it
  // solved.
  const Fixture fx = make_fixture(1.07, 900 + GetParam());
  engine::SolverSession session{SimoRealization(fx.simo)};
  SolverOptions opt;
  opt.threads = 2;
  opt.seed = 41 + GetParam();
  const double tol = 1e-5 * fx.scale;

  const auto cold = session.solve(opt);
  ASSERT_FALSE(cold.warm_started);
  EXPECT_TRUE(test::frequencies_match(cold.crossings, fx.truth, tol))
      << "cold found " << cold.crossings.size() << " vs truth "
      << fx.truth.size();

  const auto same = session.solve(opt);
  ASSERT_TRUE(same.warm_started);
  EXPECT_TRUE(test::frequencies_match(same.crossings, fx.truth, tol))
      << "same-revision found " << same.crossings.size() << " vs truth "
      << fx.truth.size();

  la::RealMatrix c = session.realization().c();
  c *= 0.995;
  session.update_residues(c);
  const RealVector truth_next = dense_truth(session.realization(), fx.scale);
  const auto next = session.solve(opt);
  ASSERT_TRUE(next.warm_started);
  EXPECT_TRUE(test::frequencies_match(next.crossings, truth_next, tol))
      << "post-update found " << next.crossings.size() << " vs truth "
      << truth_next.size();
  EXPECT_EQ(next.passive, truth_next.empty());
}

INSTANTIATE_TEST_SUITE_P(Models, SolverAgainstTruth, ::testing::Range(0, 6));

TEST(Solver, PassiveModelReportsEmptyOmega) {
  const Fixture fx = make_fixture(0.8, 901);
  ASSERT_TRUE(fx.truth.empty());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 2;
  const auto res = solver.solve(opt);
  EXPECT_TRUE(res.passive);
  EXPECT_TRUE(res.crossings.empty());
}

TEST(Solver, NearPassiveModelIsStillClassifiedCorrectly) {
  // Peak just below 1: eigenvalues near but not on the axis — the
  // expensive passive case (paper Cases 4 and 6).
  const Fixture fx = make_fixture(0.97, 902);
  ASSERT_TRUE(fx.truth.empty());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 4;
  const auto res = solver.solve(opt);
  EXPECT_TRUE(res.passive);
}

TEST(Solver, DisksCoverSearchBand) {
  const Fixture fx = make_fixture(1.05, 903);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 2;
  const auto res = solver.solve(opt);
  std::vector<std::pair<double, double>> covered;
  for (const auto& d : res.disks) {
    covered.emplace_back(d.center - d.radius, d.center + d.radius);
  }
  std::sort(covered.begin(), covered.end());
  const double tol = 1e-6 * (res.omega_max - res.omega_min);
  double cursor = res.omega_min;
  for (const auto& [lo, hi] : covered) {
    ASSERT_LE(lo, cursor + tol) << "coverage gap before " << lo;
    cursor = std::max(cursor, hi);
    if (cursor >= res.omega_max) break;
  }
  EXPECT_GE(cursor, res.omega_max - tol);
}

TEST(Solver, SerialRunsAreDeterministic) {
  const Fixture fx = make_fixture(1.06, 904);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 1;
  opt.seed = 5;
  const auto r1 = solver.solve(opt);
  const auto r2 = solver.solve(opt);
  // Bitwise: a serial solve must repeat every operation in order.
  ASSERT_EQ(r1.crossings.size(), r2.crossings.size());
  EXPECT_EQ(std::memcmp(r1.crossings.data(), r2.crossings.data(),
                        r1.crossings.size() * sizeof(double)),
            0);
  ASSERT_EQ(r1.eigenvalues.size(), r2.eigenvalues.size());
  EXPECT_EQ(std::memcmp(r1.eigenvalues.data(), r2.eigenvalues.data(),
                        r1.eigenvalues.size() * sizeof(la::Complex)),
            0);
  EXPECT_EQ(r1.shifts_processed, r2.shifts_processed);
  EXPECT_EQ(r1.total_matvecs, r2.total_matvecs);
  EXPECT_EQ(r1.locked_vectors, r2.locked_vectors);
}

TEST(Solver, LockedVectorCountsAddUp) {
  // Every reported eigenvalue was locked at its shift, so each shift
  // locks at least as many Ritz vectors as it reports eigenvalues, and
  // the solve total is the sum over the shift log (both schedulers).
  const Fixture fx = make_fixture(1.06, 906);
  ParallelHamiltonianEigensolver solver(fx.simo);
  for (const auto mode : {SchedulingMode::kDynamic,
                          SchedulingMode::kStaticGrid}) {
    SolverOptions opt;
    opt.threads = 2;
    opt.scheduling = mode;
    const auto res = solver.solve(opt);
    ASSERT_FALSE(res.shift_log.empty());
    std::size_t sum = 0;
    for (const auto& rec : res.shift_log) {
      EXPECT_GE(rec.locked, rec.eigenvalues_found) << rec.center;
      sum += rec.locked;
    }
    EXPECT_EQ(sum, res.locked_vectors);
    EXPECT_GE(res.locked_vectors, res.eigenvalues.size());
  }
}

TEST(Solver, ThreadCountsAgreeWithEachOther) {
  const Fixture fx = make_fixture(1.08, 905, 48, 4);
  ParallelHamiltonianEigensolver solver(fx.simo);
  RealVector reference;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SolverOptions opt;
    opt.threads = threads;
    opt.seed = 77;
    const auto res = solver.solve(opt);
    if (reference.empty()) {
      reference = res.crossings;
    } else {
      EXPECT_TRUE(test::frequencies_match(res.crossings, reference,
                                          1e-5 * fx.scale))
          << "thread count " << threads << " changed the result";
    }
  }
  EXPECT_TRUE(
      test::frequencies_match(reference, fx.truth, 1e-5 * fx.scale));
}

TEST(Solver, ExplicitBandLimitsAreHonored) {
  const Fixture fx = make_fixture(1.07, 906);
  ASSERT_GE(fx.truth.size(), 2u);
  // Search only the upper half of the crossing range.
  const double mid = fx.truth[fx.truth.size() / 2] * 0.999;
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 2;
  opt.omega_min = mid;
  opt.omega_max = fx.scale * 1.2;
  const auto res = solver.solve(opt);
  // All truth crossings above mid are found; none below reported
  // (modulo disks slightly overhanging the band edge).
  for (double w : fx.truth) {
    const bool inside = w >= mid;
    double best = 1e300;
    for (double r : res.crossings) best = std::min(best, std::abs(r - w));
    if (inside) {
      EXPECT_LT(best, 1e-5 * fx.scale) << "missed in-band crossing " << w;
    }
  }
}

TEST(Solver, LambdaMaxBoundsSpectralRadius) {
  const Fixture fx = make_fixture(1.05, 907);
  auto m = hamiltonian::build_scattering_hamiltonian(fx.simo.to_dense());
  const auto spectrum = la::real_eigenvalues(std::move(m));
  double rho = 0.0;
  for (const auto& l : spectrum) rho = std::max(rho, std::abs(l));

  util::Rng rng(3);
  core::LambdaMaxOptions lopt;
  const double est = core::estimate_lambda_max(fx.simo, lopt, rng);
  EXPECT_GE(est, rho * 0.999);  // upper bound (with safety factor)
  EXPECT_LE(est, rho * 2.0);    // not wildly pessimistic
}

TEST(Solver, RejectsBadOptions) {
  const Fixture fx = make_fixture(1.05, 908, 20, 2);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 0;
  EXPECT_THROW(solver.solve(opt), std::invalid_argument);
  opt = SolverOptions{};
  opt.kappa = 1;
  EXPECT_THROW(solver.solve(opt), std::invalid_argument);
  opt = SolverOptions{};
  opt.alpha = 0.5;
  EXPECT_THROW(solver.solve(opt), std::invalid_argument);
}

}  // namespace
}  // namespace phes
