// Tests for passivity characterization, the sampling cross-validator,
// and enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "phes/engine/session.hpp"
#include "phes/hamiltonian/analysis.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "phes/passivity/sweep.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using engine::SolverSession;
using macromodel::SimoRealization;
using passivity::characterize_passivity;
using passivity::enforce_passivity;
using passivity::sampling_passivity_check;

macromodel::PoleResidueModel make_model(double peak, std::uint64_t seed,
                                        std::size_t states = 36,
                                        std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  return macromodel::make_synthetic_model(spec);
}

TEST(Characterization, NonPassiveModelYieldsViolationBands) {
  const auto model = make_model(1.08, 1);
  SolverSession session(model);
  const SimoRealization& simo = session.realization();
  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto report = characterize_passivity(session, sopt);
  ASSERT_FALSE(report.passive);
  ASSERT_FALSE(report.bands.empty());
  for (const auto& band : report.bands) {
    EXPECT_GT(band.sigma_peak, 1.0);
    EXPECT_GE(band.omega_peak, band.omega_lo);
    EXPECT_LE(band.omega_peak, band.omega_hi);
    // The band peak is a genuine violation of the sampled response.
    const double sigma =
        la::complex_spectral_norm(simo.eval(band.omega_peak));
    EXPECT_NEAR(sigma, band.sigma_peak, 1e-9);
  }
}

TEST(Characterization, PassiveModelHasNoBands) {
  const auto model = make_model(0.8, 2);
  SolverSession session(model);
  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto report = characterize_passivity(session, sopt);
  EXPECT_TRUE(report.passive);
  EXPECT_TRUE(report.bands.empty());
  EXPECT_TRUE(report.crossings.empty());
}

TEST(Characterization, BandsAreDelimitedByCrossings) {
  const auto model = make_model(1.06, 3);
  SolverSession session(model);
  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto report = characterize_passivity(session, sopt);
  ASSERT_FALSE(report.bands.empty());
  for (const auto& band : report.bands) {
    // Band edges must be crossings (or the 0 / 1.5*wmax sentinels).
    const bool lo_is_crossing =
        band.omega_lo == 0.0 ||
        std::any_of(report.crossings.begin(), report.crossings.end(),
                    [&](double w) {
                      return std::abs(w - band.omega_lo) < 1e-9 * w;
                    });
    EXPECT_TRUE(lo_is_crossing);
  }
}

TEST(Sweep, AgreesWithHamiltonianCharacterization) {
  const auto model = make_model(1.07, 4);
  SolverSession session(model);
  const SimoRealization& simo = session.realization();
  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto report = characterize_passivity(session, sopt);
  ASSERT_FALSE(report.crossings.empty());

  passivity::SweepOptions sw;
  sw.omega_min = 1e-3 * model.max_pole_magnitude();
  sw.omega_max = 1.2 * model.max_pole_magnitude();
  sw.initial_grid = 2048;  // dense enough to resolve every band
  const auto sweep = sampling_passivity_check(simo, sw);
  EXPECT_FALSE(sweep.passive);

  // Every sweep-estimated crossing matches a Hamiltonian crossing.
  for (double w : sweep.estimated_crossings) {
    double best = 1e300;
    for (double c : report.crossings) best = std::min(best, std::abs(c - w));
    EXPECT_LT(best, 1e-3 * model.max_pole_magnitude())
        << "sweep crossing " << w << " not found algebraically";
  }
}

TEST(Sweep, PassiveModelPasses) {
  const auto model = make_model(0.7, 5);
  const SimoRealization simo(model);
  passivity::SweepOptions sw;
  sw.omega_min = 0.01;
  sw.omega_max = 1.2 * model.max_pole_magnitude();
  const auto sweep = sampling_passivity_check(simo, sw);
  EXPECT_TRUE(sweep.passive);
  EXPECT_LT(sweep.worst_sigma, 1.0);
  EXPECT_TRUE(sweep.estimated_crossings.empty());
}

TEST(Sweep, RejectsBadOptions) {
  const auto model = make_model(0.8, 6, 20, 2);
  const SimoRealization simo(model);
  passivity::SweepOptions sw;
  sw.omega_min = 1.0;
  sw.omega_max = 1.0;
  EXPECT_THROW(sampling_passivity_check(simo, sw), std::invalid_argument);
}

class EnforcementProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnforcementProperty, MakesModelPassiveWithSmallPerturbation) {
  const auto model =
      make_model(1.05 + 0.01 * GetParam(), 100 + GetParam());
  SolverSession session(model);

  passivity::EnforcementOptions eopt;
  eopt.solver.threads = 2;
  const auto result = enforce_passivity(session, eopt);
  const SimoRealization& simo = session.realization();
  EXPECT_TRUE(result.success) << "not passive after "
                              << result.iterations << " iterations";
  EXPECT_LT(result.relative_model_change, 0.5);
  EXPECT_FALSE(result.history.empty());

  // Independent verification via dense Hamiltonian spectrum.
  const auto m = hamiltonian::build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(m);
  const auto freqs = hamiltonian::extract_imaginary_frequencies(
      spectrum, 1e-8, model.max_pole_magnitude());
  EXPECT_TRUE(freqs.empty()) << freqs.size()
                             << " crossings remain after enforcement";

  // And via sampling.
  passivity::SweepOptions sw;
  sw.omega_min = 1e-3 * model.max_pole_magnitude();
  sw.omega_max = 1.3 * model.max_pole_magnitude();
  sw.initial_grid = 1024;
  const auto sweep = sampling_passivity_check(simo, sw);
  EXPECT_TRUE(sweep.passive)
      << "worst sigma " << sweep.worst_sigma << " at " << sweep.worst_omega;
}

INSTANTIATE_TEST_SUITE_P(Violations, EnforcementProperty,
                         ::testing::Range(0, 4));

TEST(Enforcement, PassiveInputIsANoop) {
  const auto model = make_model(0.8, 200);
  SolverSession session(model);
  passivity::EnforcementOptions eopt;
  eopt.solver.threads = 2;
  const auto result = enforce_passivity(session, eopt);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_DOUBLE_EQ(result.relative_model_change, 0.0);
}

TEST(Enforcement, PreservesPoles) {
  const auto model = make_model(1.06, 201);
  SolverSession session(model);
  const auto blocks_before = session.realization().blocks();
  passivity::EnforcementOptions eopt;
  eopt.solver.threads = 2;
  (void)enforce_passivity(session, eopt);
  const auto& blocks_after = session.realization().blocks();
  ASSERT_EQ(blocks_before.size(), blocks_after.size());
  for (std::size_t i = 0; i < blocks_before.size(); ++i) {
    EXPECT_DOUBLE_EQ(blocks_before[i].alpha, blocks_after[i].alpha);
    EXPECT_DOUBLE_EQ(blocks_before[i].beta, blocks_after[i].beta);
  }
}

TEST(Enforcement, AccuracyIsTracked) {
  // The relative model change must reflect the actual C perturbation.
  const auto model = make_model(1.05, 202);
  SolverSession session(model);
  const auto c_before = session.realization().c();
  passivity::EnforcementOptions eopt;
  eopt.solver.threads = 2;
  const auto result = enforce_passivity(session, eopt);
  const auto diff = session.realization().c() - c_before;
  const double expected =
      la::frobenius_norm(diff) / la::frobenius_norm(c_before);
  EXPECT_NEAR(result.relative_model_change, expected, 1e-12);
}

TEST(Enforcement, RejectsBadMargin) {
  const auto model = make_model(1.05, 203, 20, 2);
  SolverSession session(model);
  passivity::EnforcementOptions eopt;
  eopt.margin = 0.0;
  EXPECT_THROW((void)enforce_passivity(session, eopt), std::invalid_argument);
}

}  // namespace
}  // namespace phes
