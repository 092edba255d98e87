// enforce_large: characterize -> enforce_passivity -> verify on one
// SolverSession over a non-passive n = 500, p = 10, peak 1.10 surrogate.
// Five of the flow's six solves consume a warm start (engine seeded
// shifts, factorization cache, residue updates), so this workload loads
// the same core layer as char_cold under warm re-solves.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_support.hpp"
#include "phes/engine/session.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "phes/passivity/sweep.hpp"

namespace perfbench {
namespace {

/// The surrogate, built by the same generator recipe as the Table I
/// cases (bench_support.hpp) at half case 1's order and port count.
const phes::bench::CaseSpec kSpec{0, 500, 10, 0, 0.0, 0.0, 0.0, 0.0, 1.10, 501};

struct Flow {
  double wall = 0.0;
  double characterize_s = 0.0;
  double enforce_s = 0.0;
  double verify_s = 0.0;
  phes::passivity::PassivityReport initial;
  phes::passivity::EnforcementResult enforcement;
  phes::passivity::PassivityReport final_report;
  phes::engine::SessionStats session;
  std::unique_ptr<phes::macromodel::SimoRealization> enforced;
};

Flow run_flow(const phes::macromodel::SimoRealization& model,
              const RunConfig& cfg, std::uint64_t k, Tracer& tracer) {
  phes::core::SolverOptions opt;
  opt.threads = cfg.threads;
  opt.kernel = cfg.kernel;
  opt.seed = mix_seed(cfg.seed, k);
  phes::passivity::EnforcementOptions enforce_opt;
  enforce_opt.solver = opt;

  Flow flow;
  ScopedSpan root(tracer, "flow", k);
  const double t0 = now_s();
  phes::engine::SolverSession session(model);
  {
    ScopedSpan span(tracer, "passivity.characterize", k);
    const double t = now_s();
    flow.initial = phes::passivity::characterize_passivity(session, opt);
    flow.characterize_s = now_s() - t;
  }
  {
    ScopedSpan span(tracer, "passivity.enforce", k);
    const double t = now_s();
    flow.enforcement = phes::passivity::enforce_passivity(session, enforce_opt);
    flow.enforce_s = now_s() - t;
  }
  {
    ScopedSpan span(tracer, "passivity.verify", k);
    const double t = now_s();
    flow.final_report = phes::passivity::characterize_passivity(session, opt);
    flow.verify_s = now_s() - t;
  }
  flow.wall = now_s() - t0;
  flow.session = session.stats();
  flow.enforced = std::make_unique<phes::macromodel::SimoRealization>(
      session.realization());
  return flow;
}

/// Verify must certify the enforced model, and an independent
/// sigma_max sweep over the solver's band must agree.
void check_flow(const Flow& flow, Report& report) {
  phes::passivity::SweepOptions sweep;
  sweep.omega_min = 0.0;
  sweep.omega_max = flow.final_report.solver.omega_max;
  sweep.initial_grid = 2048;
  const auto swept =
      phes::passivity::sampling_passivity_check(*flow.enforced, sweep);
  report.check(!flow.initial.passive && flow.enforcement.success &&
                   flow.final_report.passive && swept.passive,
               "enforce_large: initial passive=" +
                   std::to_string(flow.initial.passive) +
                   " enforced=" + std::to_string(flow.enforcement.success) +
                   " verify passive=" +
                   std::to_string(flow.final_report.passive) +
                   " sweep passive=" + std::to_string(swept.passive));
}

}  // namespace

void run_enforce_large(const RunConfig& cfg, Report& report, Tracer& tracer) {
  std::vector<double> setups;
  std::unique_ptr<phes::macromodel::SimoRealization> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    auto next = std::make_unique<phes::macromodel::SimoRealization>(
        phes::bench::build_case_model(kSpec));
    setups.push_back(now_s() - t0);
    model = std::move(next);
  }

  std::uint64_t k = 0;
  std::vector<Flow> flows;
  // Closed loop of whole flows for about `seconds`.
  const auto measure = [&](double seconds, Tracer& tr) {
    std::vector<double> walls;
    const double start = now_s();
    do {
      Flow flow = run_flow(*model, cfg, k++, tr);
      check_flow(flow, report);
      walls.push_back(flow.wall);
      std::fprintf(stderr, "enforce_large: flow %zu %.4f s, %zu matvecs\n",
                   walls.size(), flow.wall,
                   flow.initial.solver.total_matvecs +
                       flow.enforcement.total_matvecs +
                       flow.final_report.solver.total_matvecs);
      flows.push_back(std::move(flow));
    } while (start_another(now_s() - start, walls.size(), seconds));
    return std::make_pair(walls, now_s() - start);
  };

  std::size_t solves = 0;
  std::size_t warm = 0;
  const auto tally = [&] {
    std::vector<double> change;
    for (const Flow& f : flows) {
      solves += f.session.solves;
      warm += f.session.warm_solves;
      change.push_back(f.enforcement.relative_model_change);
    }
    report.details["model_change_rel"] = quantile(change, 0.5);
    report.details["warm_solve_share"] =
        static_cast<double>(warm) / static_cast<double>(std::max<std::size_t>(1, solves));
    report.details["solves_per_flow"] =
        static_cast<double>(solves) / static_cast<double>(flows.size());
  };

  if (!cfg.trace) {
    const auto [walls, elapsed] = measure(cfg.seconds, tracer);
    report.set("setup_s", quantile(setups, 0.5));
    report.set("latency_s_p50", quantile(walls, 0.5));
    report.set("throughput_per_s", static_cast<double>(walls.size()) / elapsed);
    report.details["flow_s_p50"] = quantile(walls, 0.5);
    report.details["flows"] = static_cast<double>(walls.size());
    tally();
    return;
  }

  Tracer off(false);
  const auto untraced = measure(cfg.seconds / 2, off).first;
  flows.clear();
  const auto traced = measure(cfg.seconds / 2, tracer).first;
  report.set("trace.overhead_frac",
             quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0);
  tally();

  // engine and passivity layer figures over the traced flows.
  double cold = 0.0, verify = 0.0, update = 0.0, update_rounds = 0.0;
  double hits = 0.0, lookups = 0.0, factorizations = 0.0;
  std::vector<double> ch, en, ve, rounds, esolves, ematvecs;
  for (const Flow& f : flows) {
    cold += static_cast<double>(f.initial.solver.total_matvecs);
    verify += static_cast<double>(f.final_report.solver.total_matvecs);
    const auto& hist = f.enforcement.history;
    for (std::size_t i = 1; i < hist.size(); ++i) {
      update += static_cast<double>(hist[i].solver_matvecs);
      update_rounds += 1.0;
    }
    hits += static_cast<double>(f.session.cache.hits);
    lookups += static_cast<double>(f.session.cache.hits + f.session.cache.misses);
    factorizations += static_cast<double>(f.session.factorizations);
    ch.push_back(f.characterize_s);
    en.push_back(f.enforce_s);
    ve.push_back(f.verify_s);
    rounds.push_back(static_cast<double>(f.enforcement.iterations));
    esolves.push_back(static_cast<double>(f.enforcement.characterizations));
    ematvecs.push_back(static_cast<double>(f.enforcement.total_matvecs));
  }
  const double nflows = static_cast<double>(flows.size());
  auto& d = report.details;
  d["engine.warm_same.matvec_ratio"] = verify / cold;
  d["engine.warm_update.matvec_ratio"] =
      update_rounds > 0 ? (update / update_rounds) / (cold / nflows) : 0.0;
  d["engine.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  d["engine.cache.factorizations"] = factorizations / nflows;
  d["passivity.characterize.s"] = quantile(ch, 0.5);
  d["passivity.enforce.s"] = quantile(en, 0.5);
  d["passivity.verify.s"] = quantile(ve, 0.5);
  d["passivity.enforce.rounds"] = mean(rounds);
  d["passivity.enforce.solves"] = mean(esolves);
  d["passivity.enforce.matvecs"] = mean(ematvecs);
  {
    ScopedSpan span(tracer, "passivity.classify_bands", 0);
    const double t0 = now_s();
    const auto bands = phes::passivity::classify_bands(
        *model, flows.front().initial.crossings);
    d["passivity.classify_bands.s"] = now_s() - t0;
    report.check(bands.size() == flows.front().initial.bands.size(),
                 "enforce_large: classify_bands disagrees with characterize");
  }
  probe_layers(*model, cfg, report, tracer);
}

}  // namespace perfbench
