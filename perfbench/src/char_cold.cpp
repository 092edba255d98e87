// char_cold: cold parallel characterization of the Table I case-1
// surrogate (n = 1000, p = 20, peak gain 1.10) — the paper's headline
// tau_T.  Every solve uses a fresh Arnoldi seed drawn from the workload
// seed; the model itself is the one bench_support.hpp defines.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_support.hpp"
#include "phes/core/solver.hpp"
#include "phes/la/svd.hpp"

namespace perfbench {
namespace {

// A reported crossing omega must give H(j omega) a singular value this
// close to 1 (measured: about 3e-15); repeated solves must agree on each
// omega to this relative distance.
constexpr double kSigmaTol = 1e-8;
constexpr double kOmegaTol = 1e-8;

struct SolveRun {
  double wall = 0.0;
  phes::core::SolverResult result;
};

SolveRun timed_solve(const phes::core::ParallelHamiltonianEigensolver& solver,
                     const phes::macromodel::SimoRealization& r,
                     const RunConfig& cfg, std::uint64_t k, Tracer& tracer) {
  phes::core::SolverOptions opt;
  opt.threads = cfg.threads;
  opt.kernel = cfg.kernel;
  opt.seed = mix_seed(cfg.seed, k);
  ScopedSpan span(tracer, "core.solve", k);
  phes::core::SolveContext ctx;
  if (tracer.enabled()) {
    const std::int64_t parent = span.id();
    ctx.factory = [&r, &cfg, &tracer, parent, k](phes::la::Complex theta) {
      const double t0 = now_s();
      auto op = std::make_shared<const phes::hamiltonian::SmwShiftInvertOp>(
          r, theta, cfg.kernel);
      tracer.add("hamiltonian.factorize", t0, now_s(), parent, k);
      return op;
    };
  }
  SolveRun run;
  const double t0 = now_s();
  run.result = solver.solve(opt, ctx);
  run.wall = now_s() - t0;
  return run;
}

/// Checks one solve against the model and against the run's first
/// crossing set.
void check_solve(const phes::macromodel::SimoRealization& r,
                 const phes::core::SolverResult& res,
                 const phes::la::RealVector& reference, Report& report) {
  bool ok = !res.passive && !res.crossings.empty() &&
            res.crossings.size() == reference.size();
  std::string why = "crossing set differs from the run's first solve";
  for (std::size_t i = 0; ok && i < res.crossings.size(); ++i) {
    const double w = res.crossings[i];
    if (std::abs(w - reference[i]) > kOmegaTol * std::max(1.0, reference[i])) {
      ok = false;
      break;
    }
    double best = 1e300;
    for (double s : phes::la::complex_singular_values(r.eval(w))) {
      best = std::min(best, std::abs(s - 1.0));
    }
    if (best > kSigmaTol) {
      ok = false;
      why = "crossing " + std::to_string(w) + " has no unit singular value";
    }
  }
  report.check(ok, "char_cold: " + why);
}

}  // namespace

void run_char_cold(const RunConfig& cfg, Report& report, Tracer& tracer) {
  const auto& spec = phes::bench::table1_cases().front();
  std::vector<double> setups;
  std::unique_ptr<phes::macromodel::SimoRealization> r;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    auto next = std::make_unique<phes::macromodel::SimoRealization>(
        phes::bench::build_case_model(spec));
    setups.push_back(now_s() - t0);
    r = std::move(next);
  }
  const phes::core::ParallelHamiltonianEigensolver solver(*r);

  phes::la::RealVector reference;
  std::uint64_t k = 0;
  // Closed loop of cold solves for about `seconds`.
  const auto measure = [&](double seconds, Tracer& tr) {
    std::vector<double> walls;
    const double start = now_s();
    do {
      const SolveRun run = timed_solve(solver, *r, cfg, k++, tr);
      if (reference.empty()) reference = run.result.crossings;
      check_solve(*r, run.result, reference, report);
      walls.push_back(run.wall);
      std::fprintf(stderr, "char_cold: solve %zu %.4f s, %zu matvecs, %zu shifts\n",
                   walls.size(), run.wall, run.result.total_matvecs,
                   run.result.shifts_processed);
    } while (start_another(now_s() - start, walls.size(), seconds));
    report.details["crossings"] = static_cast<double>(reference.size());
    return std::make_pair(walls, now_s() - start);
  };

  if (!cfg.trace) {
    const auto [walls, elapsed] = measure(cfg.seconds, tracer);
    report.set("setup_s", quantile(setups, 0.5));
    report.set("latency_s_p50", quantile(walls, 0.5));
    report.set("throughput_per_s", static_cast<double>(walls.size()) / elapsed);
    report.details["solve_s_p50"] = quantile(walls, 0.5);
    report.details["solves"] = static_cast<double>(walls.size());
    return;
  }
  Tracer off(false);
  const auto untraced = measure(cfg.seconds / 2, off).first;
  const auto traced = measure(cfg.seconds / 2, tracer).first;
  report.set("trace.overhead_frac",
             quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0);
  probe_layers(*r, cfg, report, tracer);
}

}  // namespace perfbench
