#include "phes/engine/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "phes/la/blas.hpp"
#include "phes/util/check.hpp"

namespace phes::engine {

SolverSession::SolverSession(macromodel::SimoRealization realization,
                             SessionOptions options)
    : realization_(std::move(realization)),
      options_(options) {}

SolverSession::SolverSession(const macromodel::PoleResidueModel& model,
                             SessionOptions options)
    : SolverSession(macromodel::SimoRealization(model), options) {}

void SolverSession::update_residues(const la::RealMatrix& c) {
  util::check(c.rows() == realization_.c().rows() &&
                  c.cols() == realization_.c().cols(),
              "SolverSession::update_residues: C shape mismatch");
  // Track how far C has drifted since the band edge was last actually
  // estimated; solve() re-estimates once the drift is no longer small.
  const double c_norm = la::frobenius_norm(realization_.c());
  if (c_norm > 0.0) {
    const la::RealMatrix diff = c - realization_.c();
    residue_drift_ += la::frobenius_norm(diff) / c_norm;
  }
  realization_.c() = c;
  ++revision_;
  // Cached operators read C at apply time: everything older is invalid.
  cache_.invalidate_before(revision_);
}

core::SolverResult SolverSession::solve(const core::SolverOptions& opt) {
  // Snapshot counters so the result carries per-solve deltas.
  const CacheStats before = cache_.stats();
  const std::size_t builds_before = factorizations_.load();

  const std::uint64_t revision = revision_;
  const la::KernelBackend backend = opt.kernel;
  core::SolveContext ctx;
  ctx.factory = [this, revision, backend](la::Complex theta) {
    return cache_.acquire(
        revision, theta,
        [&] {
          factorizations_.fetch_add(1);
          return std::make_shared<const hamiltonian::SmwShiftInvertOp>(
              realization_, theta, backend);
        },
        backend);
  };

  core::WarmStartSeeds seeds;
  const bool warm = options_.warm_start && warm_.valid;
  if (warm) {
    if (warm_.revision == revision_) {
      // Unchanged model: disks replayed with their certified radius
      // (rho0 > 0) already carry the explicit-restart insurance.
      ctx.confirm_seeded = true;
    }
    // The band only transfers when this solve searches a default band
    // (no explicit upper limit), the record's edge itself came from a
    // default-band search over the same lower edge, AND the residues
    // have not drifted enough to move the spectral radius materially
    // since the edge was last estimated (the |lambda|max estimate
    // carries a 1.05 safety factor).
    if (opt.omega_max <= opt.omega_min && warm_.default_band &&
        opt.omega_min == warm_.omega_min && residue_drift_ < 0.05) {
      seeds.band_hint = warm_.omega_max;
    }
    // Same revision: re-solve the identical model — the previous disk
    // plan (centers AND certified radii) is proven and the
    // factorizations are still resident.  New revision: the crossings
    // are where the perturbed eigenvalues still cluster, but the disks
    // must be re-derived.
    if (warm_.revision == revision_) {
      seeds.shifts = warm_.shift_centers;
      seeds.radii = warm_.shift_radii;
    } else {
      // Crossings arrive in clusters (the two edges of a narrow
      // violation band hug its peak); one seed disk covers its whole
      // cluster, so thin them to cluster representatives — redundant
      // seeds cost a full Arnoldi run each before the cover rule can
      // drop them.
      const double band_guess =
          std::max(seeds.band_hint, warm_.omega_max) - opt.omega_min;
      seeds.shifts = core::plan_seeds(opt.omega_min,
                                      opt.omega_min + band_guess * 1.01,
                                      warm_.crossings, {},
                                      0.02 * band_guess)
                         .shifts;
    }
    ctx.seeds = &seeds;

    const double band_hi =
        opt.omega_max > opt.omega_min ? opt.omega_max : seeds.band_hint;
    if (band_hi > opt.omega_min) {
      // Pre-build the factorizations the scheduler will ask for first.
      // planned_seeds is the solver's own filter, so the prefetched
      // cache keys match the scheduler's requests bitwise.
      const core::SeedPlan kept =
          core::planned_seeds(opt, opt.omega_min, band_hi, seeds);
      // Prefetch is best-effort: a build failure of any kind (singular
      // shift, allocation, precondition) is left for the solve proper
      // to surface — never let it escape a worker thread.
      const auto prefetch_one = [&](double w) noexcept {
        try {
          (void)ctx.factory(la::Complex(0.0, w));
        } catch (...) {
        }
      };
      // Factorizations are the dominant per-shift setup cost; build
      // them with the solve's thread budget, not serially.
      const std::size_t workers =
          std::min<std::size_t>(opt.threads, kept.shifts.size());
      if (workers <= 1) {
        for (double w : kept.shifts) prefetch_one(w);
      } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t) {
          pool.emplace_back([&] {
            for (;;) {
              const std::size_t i = next.fetch_add(1);
              if (i >= kept.shifts.size()) return;
              prefetch_one(kept.shifts[i]);
            }
          });
        }
        for (auto& th : pool) th.join();
      }
    }
  }

  core::ParallelHamiltonianEigensolver solver(realization_);
  core::SolverResult result = solver.solve(opt, ctx);

  const CacheStats after = cache_.stats();
  result.cache_hits = after.hits - before.hits;
  result.cache_misses = after.misses - before.misses;
  result.factorizations += factorizations_.load() - builds_before;

  // A fresh |lambda|max estimate ran: the band edge is current again.
  if (result.lambda_max_matvecs > 0) residue_drift_ = 0.0;

  ++solves_;
  if (result.warm_started) ++warm_solves_;

  // Record this outcome for the next solve (survives residue updates).
  warm_.valid = true;
  warm_.revision = revision_;
  warm_.omega_min = result.omega_min;
  warm_.omega_max = result.omega_max;
  warm_.default_band = opt.omega_max <= opt.omega_min;
  warm_.crossings = result.crossings;
  warm_.shift_centers.clear();
  warm_.shift_radii.clear();
  warm_.shift_centers.reserve(result.disks.size());
  warm_.shift_radii.reserve(result.disks.size());
  std::vector<std::size_t> order(result.disks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.disks[a].center < result.disks[b].center;
  });
  for (const std::size_t i : order) {
    warm_.shift_centers.push_back(result.disks[i].center);
    warm_.shift_radii.push_back(result.disks[i].radius);
  }

  return result;
}

SessionStats SolverSession::stats() const {
  SessionStats s;
  s.cache = cache_.stats();
  s.revision = revision_;
  s.solves = solves_;
  s.warm_solves = warm_solves_;
  s.factorizations = factorizations_.load();
  return s;
}

}  // namespace phes::engine
