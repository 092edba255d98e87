#pragma once
// Reusable solver contexts — the session layer over the parallel
// Hamiltonian eigensolver.
//
// The enforcement loop (characterize -> perturb residues ->
// re-characterize, 3-10 rounds on a typical non-passive model) and the
// verify stage both re-run the eigensolver on a model that differs only
// slightly — or not at all — from the one just solved.  A
// SolverSession makes that reuse explicit: it owns a SimoRealization
// snapshot and a WarmStart record of the previous outcome that seeds
// the shift scheduler on re-solves:
//
//  - same revision (verify after enforce, confirmation re-solves): the
//    startup shifts are the previous certified disk centers and the
//    |lambda|max band estimate is skipped.  The recorded solve counts
//    as the confirmation restart of each replayed disk (min_restarts
//    drops to 1 for the seeded intervals only; fresh mop-up intervals
//    keep the full restart insurance), roughly halving the cost of
//    empty disks on the verify path;
//  - after update_residues (next enforcement round): the warm-start
//    seeds survive — the startup shifts are the previous crossing
//    frequencies, exactly where the perturbed eigenvalues still
//    cluster, and the band edge is reused.
//
// Every shift builds its own shift-and-invert operator, as in a cold
// ParallelHamiltonianEigensolver::solve: the SMW factorization is a
// negligible share of a shift's Arnoldi work, so nothing is cached.
//
// One session per job; solve() is not thread-safe (run solves
// sequentially on a session).

#include <cstdint>

#include "phes/core/solver.hpp"
#include "phes/la/matrix.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::engine {

/// Outcome record of the session's most recent solve, kept across
/// residue updates so the next characterization starts informed.
struct WarmStart {
  bool valid = false;
  std::uint64_t revision = 0;  ///< revision the record was captured at
  double omega_min = 0.0;      ///< band of the recorded solve
  double omega_max = 0.0;      ///< band edge (doubles as |lambda|max est.)
  /// True when omega_max came from a default-band search (the
  /// |lambda|max estimate or a hint derived from it).  An explicit
  /// caller-set omega_max must never become a later default solve's
  /// band hint — it may truncate the search.
  bool default_band = false;
  la::RealVector crossings;    ///< previous Omega
  la::RealVector shift_centers;  ///< previous certified disk centers
  la::RealVector shift_radii;    ///< certified radii, parallel to centers
};

/// Factorization-cache counters.  A session caches no factorizations,
/// so new solves always report 0.  The fields stay because job records
/// stored by earlier versions, which had a cache, must re-serialize
/// byte for byte, and because perfbench/src still names them.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
};

/// Aggregate session counters (surfaced per job by the pipeline).
struct SessionStats {
  CacheStats cache;  ///< always 0 for new solves (see CacheStats)
  std::uint64_t revision = 0;
  std::size_t solves = 0;          ///< solver invocations on this session
  std::size_t warm_solves = 0;     ///< solves that consumed a warm start
  /// Shift-invert operators built: the sum of the solves'
  /// SolverResult::factorizations.
  std::size_t factorizations = 0;
};

struct SessionOptions {
  /// Seed re-solves from the previous outcome (band + shifts).
  bool warm_start = true;
};

class SolverSession {
 public:
  /// Owns `realization` as its model snapshot (revision 0).
  explicit SolverSession(macromodel::SimoRealization realization,
                         SessionOptions options = {});
  /// Convenience: realize a pole-residue model into the session.
  explicit SolverSession(const macromodel::PoleResidueModel& model,
                         SessionOptions options = {});

  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  [[nodiscard]] const macromodel::SimoRealization& realization()
      const noexcept {
    return realization_;
  }
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Replace the residue matrix C (what enforcement perturbs).  Bumps
  /// the model revision but deliberately keeps the warm-start record:
  /// the new model's imaginary eigenvalues still cluster near the old
  /// crossings.
  void update_residues(const la::RealMatrix& c);

  /// Run the eigensolver on the current snapshot, warm-started from the
  /// previous outcome.
  [[nodiscard]] core::SolverResult solve(const core::SolverOptions& options);

  [[nodiscard]] SessionStats stats() const;
  [[nodiscard]] const WarmStart& warm_start() const noexcept { return warm_; }

 private:
  macromodel::SimoRealization realization_;
  SessionOptions options_;
  std::uint64_t revision_ = 0;
  WarmStart warm_;
  /// Cumulative relative C drift since the band edge was last
  /// estimated; solve() refuses the warm band hint (and re-estimates)
  /// once this is no longer small relative to the estimate's safety
  /// factor, so the search band cannot go stale over many rounds.
  double residue_drift_ = 0.0;
  std::size_t factorizations_ = 0;
  std::size_t solves_ = 0;
  std::size_t warm_solves_ = 0;
};

}  // namespace phes::engine
