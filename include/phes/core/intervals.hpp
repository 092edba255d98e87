#pragma once
// Interval / shift bookkeeping for the parallel multi-shift scheduler
// (paper Sec. IV).  Pure single-threaded logic: the thread scheduler
// calls these under one mutex, so the rules (startup Eqs. 13-15, pick
// Eq. 20, cover Eq. 24, split Eqs. 25-28, termination Eq. 29) can be
// unit-tested deterministically.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "phes/la/types.hpp"

namespace phes::core {

/// A tentative interval with its tentative shift (paper's
/// I~_nu = [I~L, I~U] with shift theta~_nu).
struct TentativeInterval {
  double lo = 0.0;
  double hi = 0.0;
  double shift = 0.0;       ///< in [lo, hi]
  std::uint64_t id = 0;     ///< stable id; also keys the RNG stream
  /// Warm-start initial clean-disk radius; 0 lets the solver derive
  /// rho0 from the interval width (Eq. 23).  A re-solve of an unchanged
  /// model seeds each previous shift with its previously certified
  /// radius so the disk plan reproduces without exploratory splits.
  double rho0 = 0.0;
};

/// A certified clean disk produced by a completed single-shift run.
struct CompletedDisk {
  double center = 0.0;
  double radius = 0.0;
  la::ComplexVector eigenvalues;  ///< eigenvalues inside the disk
};

/// Warm-start seed plan: shift frequencies plus (optionally) the clean
/// radii their disks certified last time.
struct SeedPlan {
  la::RealVector shifts;  ///< sorted, strictly inside the band
  la::RealVector radii;   ///< parallel to shifts, or empty
};

/// Sort the seeds, drop those outside (omega_min, omega_max), and merge
/// seeds closer than `min_gap` (the survivor is the first of each
/// cluster).  `radii` may be empty or parallel to `shifts`; kept radii
/// stay paired.  Kept shift values are returned EXACTLY as given — a
/// replayed certified radius is proven only for its exact center.
[[nodiscard]] SeedPlan plan_seeds(double omega_min, double omega_max,
                                  const la::RealVector& shifts,
                                  const la::RealVector& radii,
                                  double min_gap);

/// Warm-start startup rule: partition [omega_min, omega_max] so that
/// every seed is the tentative shift of its own interval (boundaries at
/// midpoints between consecutive seeds), then split the widest
/// intervals until at least `n_intervals` exist so every solver thread
/// finds startup work.  The plan must come from plan_seeds (sorted,
/// in-band, separated); per-seed radii become the intervals' rho0.
/// Seed intervals are queued first — the previous solve's shifts are
/// the most informative, so they are processed before fill-in work.
[[nodiscard]] std::vector<TentativeInterval> seeded_partition(
    double omega_min, double omega_max, const SeedPlan& plan,
    std::size_t n_intervals, double min_width);

/// Shift-queue state machine.  Invariants (checked in tests):
///  - tentative intervals never overlap each other or in-flight ones;
///  - an interval is handed out at most once (Eq. 20);
///  - at termination the certified disks cover [omega_min, omega_max]
///    up to the configured resolution.
class IntervalScheduler {
 public:
  /// Subdivide [omega_min, omega_max] into n_intervals = kappa * threads
  /// pieces with shifts per the paper's startup rule: first interval's
  /// shift at omega_min, last at omega_max, others centered; queue
  /// ordered so the band extrema are processed first (Eqs. 13-15).
  IntervalScheduler(double omega_min, double omega_max,
                    std::size_t n_intervals, double min_interval_width);

  /// Start from an explicit set of disjoint intervals (used by the
  /// static-grid baseline to mop up coverage gaps).  Queue order is the
  /// given order; ids are reassigned.
  IntervalScheduler(std::vector<TentativeInterval> intervals,
                    double omega_min, double omega_max,
                    double min_interval_width);

  /// Pops the next free tentative interval (Eq. 20); nullopt when the
  /// tentative queue is momentarily empty (in-flight work may still
  /// split and refill it).
  [[nodiscard]] std::optional<TentativeInterval> acquire();

  /// Apply the completion rules for a disk of radius `rho` certified
  /// around `interval.shift`:
  ///  - covered part of the interval is retired;
  ///  - uncovered outer portions become new tentative intervals with
  ///    centered shifts (Eqs. 25-28);
  ///  - tentative shifts swallowed by the disk are deleted (Eq. 24).
  void complete(const TentativeInterval& interval, double rho,
                la::ComplexVector eigenvalues);

  /// Termination test (Eq. 29): no tentative and no in-flight work.
  [[nodiscard]] bool done() const noexcept {
    return tentative_.empty() && in_flight_ == 0;
  }

  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] std::size_t tentative_count() const noexcept {
    return tentative_.size();
  }
  /// Number of tentative shifts deleted by the cover rule without ever
  /// being processed (the source of superlinear speedups, Sec. V).
  [[nodiscard]] std::size_t shifts_eliminated() const noexcept {
    return eliminated_;
  }
  [[nodiscard]] const std::vector<CompletedDisk>& disks() const noexcept {
    return completed_;
  }
  [[nodiscard]] double omega_min() const noexcept { return omega_min_; }
  [[nodiscard]] double omega_max() const noexcept { return omega_max_; }

  /// All eigenvalues from all completed disks (duplicates possible when
  /// disks overlap; callers cluster).
  [[nodiscard]] la::ComplexVector all_eigenvalues() const;

 private:
  std::uint64_t next_id_ = 0;
  double omega_min_ = 0.0;
  double omega_max_ = 0.0;
  double min_width_ = 0.0;
  std::deque<TentativeInterval> tentative_;
  std::vector<CompletedDisk> completed_;
  std::size_t in_flight_ = 0;
  std::size_t eliminated_ = 0;
};

}  // namespace phes::core
