// Traced-mode probe of the hamiltonian and core layers, timed from
// outside through the library's public entry points.

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "phes/core/arnoldi.hpp"
#include "phes/core/lambda_max.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/core/solver.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/util/rng.hpp"

namespace perfbench {
namespace {

using phes::la::Complex;

/// Decorator that times every apply of the wrapped operator as a
/// hamiltonian.apply span.  Used from one thread (core::arnoldi is
/// serial).
class TimedOperator final : public phes::hamiltonian::ComplexLinearOperator {
 public:
  TimedOperator(const phes::hamiltonian::ComplexLinearOperator& inner,
                Tracer& tracer, std::int64_t parent, std::uint64_t request)
      : inner_(inner), tracer_(tracer), parent_(parent), request_(request) {}

  [[nodiscard]] std::size_t dim() const noexcept override {
    return inner_.dim();
  }
  void apply(std::span<const Complex> x,
             std::span<Complex> y) const override {
    const double t0 = now_s();
    inner_.apply(x, y);
    const double t1 = now_s();
    tracer_.add("hamiltonian.apply", t0, t1, parent_, request_);
    seconds_ += t1 - t0;
    ++count_;
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  const phes::hamiltonian::ComplexLinearOperator& inner_;
  Tracer& tracer_;
  std::int64_t parent_;
  std::uint64_t request_;
  mutable double seconds_ = 0.0;
  mutable std::size_t count_ = 0;
};

/// Shift-invert operator at j*omega, nudging the shift off a
/// (numerically) exact eigenvalue the way the solver does.
std::shared_ptr<const phes::hamiltonian::SmwShiftInvertOp> make_op(
    const phes::macromodel::SimoRealization& r, double omega,
    phes::la::KernelBackend kernel) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_shared<const phes::hamiltonian::SmwShiftInvertOp>(
          r, Complex(0.0, omega), kernel);
    } catch (const std::runtime_error&) {
      if (attempt == 3) throw;
      omega = omega * (1.0 + 1e-7) + 1e-9;
    }
  }
}

}  // namespace

void probe_layers(const phes::macromodel::SimoRealization& r,
                  const RunConfig& cfg, Report& report, Tracer& tracer) {
  constexpr std::uint64_t kProbeRequest = 1'000'000;
  const phes::core::ParallelHamiltonianEigensolver solver(r);
  phes::core::SolverOptions opt;
  opt.threads = cfg.threads;
  opt.kernel = cfg.kernel;
  opt.seed = mix_seed(cfg.seed, 0x9e0be);

  // Parallel cold solve; every factorization is timed by the factory.
  std::mutex mu;
  std::size_t factorizations = 0;
  double factorize_s = 0.0;
  phes::core::SolverResult par;
  double par_wall = 0.0;
  {
    ScopedSpan span(tracer, "core.solve", kProbeRequest);
    const std::int64_t parent = span.id();
    phes::core::SolveContext ctx;
    ctx.factory = [&](Complex theta) {
      const double t0 = now_s();
      auto op = std::make_shared<const phes::hamiltonian::SmwShiftInvertOp>(
          r, theta, cfg.kernel);
      const double t1 = now_s();
      tracer.add("hamiltonian.factorize", t0, t1, parent, kProbeRequest);
      std::lock_guard<std::mutex> lock(mu);
      ++factorizations;
      factorize_s += t1 - t0;
      return op;
    };
    const double t0 = now_s();
    par = solver.solve(opt, ctx);
    par_wall = now_s() - t0;
  }
  report.set("hamiltonian.factorize.count",
             static_cast<double>(factorizations));
  report.set("hamiltonian.factorize.s_mean",
             factorizations ? factorize_s / static_cast<double>(factorizations)
                            : 0.0);
  report.set("core.solve.matvecs", static_cast<double>(par.total_matvecs));
  report.set("core.solve.shifts", static_cast<double>(par.shifts_processed));
  report.set("core.solve.shifts_eliminated",
             static_cast<double>(par.shifts_eliminated));
  report.set("core.solve.crossings", static_cast<double>(par.crossings.size()));
  double busy = 0.0;
  for (const auto& rec : par.shift_log) busy += rec.seconds;
  report.set("core.scheduler.busy_frac",
             busy / (static_cast<double>(cfg.threads) * par_wall));

  // Serial solve of the same problem: the single-thread baseline tau_1.
  {
    phes::core::SolverOptions serial = opt;
    serial.threads = 1;
    ScopedSpan span(tracer, "core.solve", kProbeRequest + 1);
    const double t0 = now_s();
    const auto res = solver.solve(serial);
    const double wall = now_s() - t0;
    report.set("core.scheduler.speedup", wall / par_wall);
    report.check(res.crossings.size() == par.crossings.size(),
                 "probe: serial and parallel solves disagree on the "
                 "crossing count");
  }

  {
    phes::core::LambdaMaxOptions lm;
    lm.kernel = cfg.kernel;
    phes::util::Rng rng(opt.seed, 7);
    ScopedSpan span(tracer, "core.lambda_max", kProbeRequest);
    const double t0 = now_s();
    const auto est = phes::core::estimate_lambda_max_counted(r, lm, rng);
    report.set("core.lambda_max.s", now_s() - t0);
    report.set("core.lambda_max.matvecs", static_cast<double>(est.matvecs));
  }

  // Replay at up to kCentres logged shift centres, evenly spread over
  // the band.  Replayed cycles start from a fresh random vector with no
  // locked vectors, so they measure one undeflated restart.
  constexpr std::size_t kCentres = 8;
  auto log = par.shift_log;
  std::sort(log.begin(), log.end(),
            [](const auto& a, const auto& b) { return a.center < b.center; });
  std::vector<phes::core::ShiftRecord> picks;
  for (std::size_t i = 0; i < std::min(kCentres, log.size()); ++i) {
    picks.push_back(log[i * log.size() / std::min(kCentres, log.size())]);
  }
  const phes::core::SingleShiftOptions ss_opt = [&] {
    phes::core::SingleShiftOptions o;
    o.kernel = cfg.kernel;
    return o;
  }();
  const std::size_t d =
      std::min<std::size_t>(ss_opt.krylov_dim, 2 * r.order() - 1);
  std::size_t applies = 0;
  double apply_s = 0.0;
  double orth_s = 0.0;
  double values_s = 0.0;
  double vectors_s = 0.0;
  double single_s = 0.0;
  double restarts = 0.0;
  phes::util::Rng rng(opt.seed, 11);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const std::uint64_t req = kProbeRequest + 10 + i;
    const auto op = make_op(r, picks[i].center, cfg.kernel);
    const auto v0 = phes::core::random_start_vector(op->dim(), rng);
    phes::core::ArnoldiResult ar;
    {
      ScopedSpan span(tracer, "core.arnoldi", req);
      const TimedOperator timed(*op, tracer, span.id(), req);
      const double t0 = now_s();
      ar = phes::core::arnoldi(timed, v0, d, {}, cfg.kernel);
      orth_s += (now_s() - t0) - timed.seconds();
      apply_s += timed.seconds();
      applies += timed.count();
    }
    double t_values = 0.0;
    {
      ScopedSpan span(tracer, "core.ritz.values", req);
      const double t0 = now_s();
      const auto pairs = phes::core::ritz_pairs(ar, false);
      t_values = now_s() - t0;
      report.check(!pairs.empty(), "probe: replayed cycle has no Ritz pair");
    }
    {
      ScopedSpan span(tracer, "core.ritz.vectors", req);
      const double t0 = now_s();
      const auto pairs = phes::core::ritz_pairs(ar, true);
      vectors_s += (now_s() - t0) - t_values;
    }
    values_s += t_values;
    {
      ScopedSpan span(tracer, "core.single_shift", req);
      phes::util::Rng ss_rng(opt.seed, 100 + i);
      const double t0 = now_s();
      const auto res = phes::core::single_shift_iteration(
          r, picks[i].center, picks[i].radius, ss_opt, ss_rng);
      single_s += now_s() - t0;
      restarts += static_cast<double>(res.restarts);
    }
  }
  const double cycles = std::max<double>(1.0, static_cast<double>(picks.size()));
  const double n = static_cast<double>(r.order());
  const double p = static_cast<double>(r.ports());
  report.set("hamiltonian.apply.count", static_cast<double>(applies));
  report.set("hamiltonian.apply.s_mean",
             applies ? apply_s / static_cast<double>(applies) : 0.0);
  // Computed (not counted) per-apply cost of (M - theta I)^{-1} x by the
  // SMW formula: two dense real-by-complex products with C (4np flops
  // and 8np bytes each), a 2p x 2p complex LU solve (32p^2 flops over
  // 64p^2 bytes of factors), and the block-diagonal resolvent sweeps and
  // combination over 2n complex entries (about 40n flops, 128n bytes).
  report.set("hamiltonian.apply.flops_computed",
             8.0 * n * p + 32.0 * p * p + 40.0 * n);
  report.set("hamiltonian.apply.bytes_computed",
             16.0 * n * p + 64.0 * p * p + 128.0 * n);
  report.set("core.arnoldi.orth_s_per_cycle", orth_s / cycles);
  report.set("core.ritz.values_s_per_cycle", values_s / cycles);
  report.set("core.ritz.vectors_s_per_cycle", vectors_s / cycles);
  report.set("core.single_shift.s_mean", single_s / cycles);
  report.set("core.single_shift.restarts_mean", restarts / cycles);
}

}  // namespace perfbench
