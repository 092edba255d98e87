#include "phes/engine/session.hpp"

#include <algorithm>
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
}

core::SolverResult SolverSession::solve(const core::SolverOptions& opt) {
  core::SolveContext ctx;
  core::WarmStartSeeds seeds;
  if (options_.warm_start && warm_.valid) {
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
    // plan (centers AND certified radii) is proven.  New revision: the
    // crossings are where the perturbed eigenvalues still cluster, but
    // the disks must be re-derived.
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
  }

  core::ParallelHamiltonianEigensolver solver(realization_);
  core::SolverResult result = solver.solve(opt, ctx);
  factorizations_ += result.factorizations;

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
  s.revision = revision_;
  s.solves = solves_;
  s.warm_solves = warm_solves_;
  s.factorizations = factorizations_;
  return s;
}

}  // namespace phes::engine
