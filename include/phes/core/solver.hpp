#pragma once
// Public facade: the parallel Hamiltonian eigensolver (the paper's
// headline contribution).
//
// Finds the complete set Omega of purely imaginary eigenvalues of the
// Hamiltonian associated with a structured scattering macromodel, by
// running single-shift Arnoldi iterations concurrently under the
// dynamic shift-scheduling strategy of Sec. IV.  A static
// pre-distributed-grid scheduler — the strawman the paper dismisses —
// is included for the scalability ablation.

#include <cstdint>
#include <vector>

#include "phes/core/intervals.hpp"
#include "phes/core/lambda_max.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::core {

/// Scheduling strategy for distributing shifts over threads.
enum class SchedulingMode {
  kDynamic,  ///< paper Sec. IV: work queue with cover/split updates
  kStaticGrid,  ///< fixed uniform grid, gaps mopped up afterwards
};

/// Solver configuration; defaults follow the paper's reported settings.
struct SolverOptions {
  std::size_t threads = 1;
  /// N = kappa * threads initial intervals, kappa >= 2 (Sec. IV-A).
  std::size_t kappa = 2;
  /// Initial-radius overlap factor alpha >~ 1 (Eq. 23).
  double alpha = 1.05;
  double omega_min = 0.0;
  /// Upper band edge; <= 0 requests the |lambda_max| estimate.
  double omega_max = 0.0;
  SingleShiftOptions shift{};
  LambdaMaxOptions lambda_max{};
  SchedulingMode scheduling = SchedulingMode::kDynamic;
  std::uint64_t seed = 1;
  /// Relative |Re lambda| threshold for "purely imaginary".
  double imag_tol = 1e-6;
  /// Band-relative resolution: intervals thinner than
  /// resolution * (omega_max - omega_min) count as covered.
  double resolution = 1e-9;
  /// Compute substrate for the whole solve path; solve() propagates it
  /// into `shift.kernel` and `lambda_max.kernel` so one switch flips
  /// every kernel (see la/kernels.hpp for the tuned/reference
  /// contract).
  la::KernelBackend kernel = la::KernelBackend::kTuned;
};

/// Per-shift execution record (diagnostics and scheduling ablations).
struct ShiftRecord {
  double center = 0.0;
  double radius = 0.0;
  std::size_t eigenvalues_found = 0;
  std::size_t restarts = 0;
  std::size_t matvecs = 0;
  std::size_t locked = 0;  ///< Ritz vectors locked (SingleShiftResult)
  double seconds = 0.0;
  std::size_t thread = 0;
};

/// Solve outcome.
struct SolverResult {
  /// Omega: sorted positive crossing frequencies (empty => passive).
  la::RealVector crossings;
  bool passive = false;
  /// All (deduplicated) eigenvalues found in the certified disks.
  la::ComplexVector eigenvalues;
  double omega_min = 0.0;
  double omega_max = 0.0;
  double seconds = 0.0;
  std::size_t shifts_processed = 0;
  std::size_t shifts_eliminated = 0;  ///< dropped by the cover rule
  /// All matrix-vector products spent, including the |lambda|max band
  /// estimate (a warm-started re-solve skips that estimate entirely).
  std::size_t total_matvecs = 0;
  std::size_t lambda_max_matvecs = 0;  ///< band-estimate share of the total
  /// Ritz vectors locked for deflation, summed over shift_log.
  std::size_t locked_vectors = 0;
  std::vector<ShiftRecord> shift_log;
  std::vector<CompletedDisk> disks;   ///< for coverage verification

  // -- Session / warm-start diagnostics (engine::SolverSession) --------
  bool warm_started = false;     ///< scheduler seeded from a prior solve
  std::size_t seeded_shifts = 0; ///< seed intervals injected at startup
  std::size_t factorizations = 0;  ///< shift-invert operators built
};

/// Warm-start seeds for a re-solve (produced by engine::SolverSession
/// from the previous outcome on the same model family).
struct WarmStartSeeds {
  /// Seed shift frequencies; each becomes a startup interval's
  /// tentative shift (dynamic mode only).
  la::RealVector shifts;
  /// Previously certified clean radii, parallel to `shifts` (or empty):
  /// a same-revision re-solve starts each disk at its proven size
  /// instead of re-deriving it from the interval width.
  la::RealVector radii;
  /// Known band edge from the previous solve; > omega_min skips the
  /// |lambda|max Arnoldi estimate when no explicit omega_max is set.
  double band_hint = 0.0;
};

/// Per-solve dependency hooks.  Default-constructed context reproduces
/// the classic cold solve bit for bit.
struct SolveContext {
  /// Routes shift-invert construction (e.g. through a timing wrapper).
  /// Empty => build one operator per shift from scratch.
  hamiltonian::ShiftInvertFactory factory;
  /// Scheduler seeding; nullptr => the paper's uniform startup grid.
  const WarmStartSeeds* seeds = nullptr;
  /// Confirmation re-solve of an unchanged model: intervals that carry
  /// a previously certified radius (rho0 > 0) run with min_restarts
  /// capped at 1 — the recorded solve already paid their
  /// explicit-restart insurance.  Fresh fill/mop-up intervals keep the
  /// full restart policy.
  bool confirm_seeded = false;
};

class ParallelHamiltonianEigensolver {
 public:
  /// Keeps a reference to `realization` (caller guarantees lifetime).
  explicit ParallelHamiltonianEigensolver(
      const macromodel::SimoRealization& realization);

  /// Run the multi-shift search.  Thread-safe: concurrent solve() calls
  /// on one instance are allowed (all state is per-call).
  [[nodiscard]] SolverResult solve(const SolverOptions& options) const;

  /// Same search with per-solve hooks: a shift-invert factory and
  /// warm-start scheduler seeds.
  [[nodiscard]] SolverResult solve(const SolverOptions& options,
                                   const SolveContext& context) const;

 private:
  [[nodiscard]] SolverResult run_scheduler(IntervalScheduler scheduler,
                                           const SolverOptions& options,
                                           const SolveContext& context,
                                           double band_lo,
                                           double band_hi) const;

  /// Static strawman: every grid shift is processed unconditionally
  /// (no cover-rule elimination), then coverage gaps are finished with
  /// a dynamic pass so the result stays complete.
  [[nodiscard]] SolverResult run_static_grid(const SolverOptions& options,
                                             const SolveContext& context,
                                             double band_lo,
                                             double band_hi) const;

  void finalize_result(SolverResult& result, const SolverOptions& options,
                       double band_hi) const;

  const macromodel::SimoRealization& realization_;
};

}  // namespace phes::core
