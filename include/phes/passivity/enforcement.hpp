#pragma once
// Passivity enforcement by iterative first-order singular-value
// perturbation of the residue matrix C (the standard scheme of
// [8], [9], [17], which the paper's title refers to and whose inner
// loop is exactly what the fast parallel characterization accelerates).
//
// Each iteration:
//  1. characterize: run the Hamiltonian eigensolver -> crossings ->
//     violation bands with their peaks;
//  2. linearize: at each constraint frequency w*, for each singular
//     value sigma_i > 1 with triplet (u_i, sigma_i, v_i),
//       delta sigma_i = Re( u_i^H  DeltaC  Phi(j w*) v_i ),
//     Phi(s) = (sI - A)^{-1} B, which is linear in DeltaC;
//  3. correct: the minimum-Frobenius-norm DeltaC driving each violating
//     sigma_i to 1 - margin solves a small dual Gram system;
//  4. apply DeltaC to the realization (poles untouched: stability is
//     preserved by construction) and repeat until the Hamiltonian test
//     reports no imaginary eigenvalues.

#include <cstddef>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"

namespace phes::passivity {

struct EnforcementOptions {
  std::size_t max_iterations = 25;
  /// Enforced ceiling is 1 - margin; a small buffer keeps the next
  /// characterization from finding grazing crossings again.
  double margin = 2e-3;
  /// Tikhonov ridge on the dual Gram system (conditioning guard).
  double ridge = 1e-10;
  core::SolverOptions solver{};
};

struct EnforcementIterate {
  std::size_t violation_bands = 0;
  double worst_sigma = 0.0;
  double delta_c_norm = 0.0;  ///< Frobenius norm of this step's DeltaC
  /// This round's characterization cost (warm-started rounds do fewer
  /// matvecs).
  std::size_t solver_matvecs = 0;
  bool warm_started = false;
};

struct EnforcementResult {
  bool success = false;
  std::size_t iterations = 0;
  std::vector<EnforcementIterate> history;
  /// ||C_final - C_initial||_F / ||C_initial||_F — model perturbation.
  double relative_model_change = 0.0;
  // Aggregate characterization cost across all rounds.
  std::size_t characterizations = 0;
  std::size_t total_matvecs = 0;
};

/// Perturb the residues of the model owned by `session` until passive
/// (or the iteration budget runs out).  Each round re-characterizes
/// through the session, so rounds 2..k are warm-started from the
/// previous crossing set and the final confirmation replays the last
/// round's certified disks.  Requires sigma_max(D) < 1.  The perturbed
/// model stays in the session (session.realization()).
[[nodiscard]] EnforcementResult enforce_passivity(
    engine::SolverSession& session, const EnforcementOptions& options);

}  // namespace phes::passivity
