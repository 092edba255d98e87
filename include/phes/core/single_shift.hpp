#pragma once
// The single-shift iteration S(theta, rho0) -> ({lambda_k}, rho)
// (paper Sec. III, Fig. 1).
//
// A multi-restart, deflated Arnoldi process on the shift-and-inverted
// Hamiltonian around theta = j*omega_center.  Returns every eigenvalue
// inside a *certified clean disk* C(theta, rho): the eigenvalues listed
// are all of M's eigenvalues within distance rho of the shift.
//
// Radius rules implemented exactly as described in the paper:
//  - start from rho0;
//  - if more than n_theta eigenvalues converge inside the current disk,
//    the radius shrinks so that only the n_theta closest are enclosed
//    and the rest are discarded from the report (they stay locked for
//    deflation);
//  - if converged eigenvalues fall outside the initial disk (and the
//    count allows), the radius expands to the farthest converging one;
//  - the certificate is additionally capped below the distance estimate
//    1/|mu| of the nearest *unconverged* Ritz value, with a safety
//    margin, so no unseen eigenvalue can hide inside the disk;
//  - at least `min_restarts` runs are required, and the iteration only
//    stops once a fresh (deflated, re-randomized) restart adds nothing
//    new inside the disk — the explicit-restart insurance of [9]
//    against unlucky start vectors.

#include <cstdint>

#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/kernels.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"

namespace phes::core {

/// Tuning knobs of S; defaults follow the paper (d = 60, n_theta = 4-6).
struct SingleShiftOptions {
  std::size_t krylov_dim = 60;      ///< d, Krylov subspace cap
  std::size_t eigs_per_shift = 6;   ///< n_theta
  double ritz_tol = 1e-9;           ///< relative residual acceptance
  std::size_t max_restarts = 10;
  std::size_t min_restarts = 2;     ///< confirmation restarts
  double radius_safety = 0.9;       ///< margin vs. unconverged Ritz dist
  double cluster_tol = 1e-7;        ///< relative eigenvalue dedup radius
  /// Compute substrate for the Arnoldi orthogonalization and the
  /// shift-invert applies (see la/kernels.hpp for the contract).
  la::KernelBackend kernel = la::KernelBackend::kTuned;
};

/// Result of one S invocation.
struct SingleShiftResult {
  la::ComplexVector eigenvalues;  ///< all eigenvalues in C(theta, radius)
  double radius = 0.0;            ///< certified clean radius
  std::size_t restarts = 0;
  std::size_t matvecs = 0;
  /// Ritz vectors formed and locked for deflation, over all restarts
  /// (counts pairs whose direction was already in the locked span too).
  std::size_t locked = 0;
  /// Shift-invert operators built locally (0 when a factory supplies
  /// them — the factory's owner counts its own builds).
  std::size_t factorizations = 0;
};

/// Run S(j*omega_center, rho0) on the realization's Hamiltonian.
/// `rng` supplies the random restart vectors; pass a stream keyed by the
/// shift id for scheduling-independent reproducibility.
[[nodiscard]] SingleShiftResult single_shift_iteration(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, const SingleShiftOptions& options, util::Rng& rng);

/// Same iteration, but the shift-invert operator is requested through
/// `factory` (e.g. a timing wrapper) instead of built from scratch.
/// An empty factory falls back to direct construction.
[[nodiscard]] SingleShiftResult single_shift_iteration(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, const SingleShiftOptions& options, util::Rng& rng,
    const hamiltonian::ShiftInvertFactory& factory);

}  // namespace phes::core
