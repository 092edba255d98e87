#pragma once
// Shared machinery of the repository benchmark: clocks, order
// statistics, the in-memory span recorder of the traced mode, and the
// report every workload fills in.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/la/kernels.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace perfbench {

/// Seconds on the monotonic clock since the process started measuring.
double now_s();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0
/// for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Closed-loop pacing: whether another unit of work (solve, flow, round
/// of jobs) should start after `units` units took `elapsed` seconds.  A
/// unit starts while its expected end overshoots `seconds` by at most
/// half a unit, so a run measures about `seconds` whatever the unit
/// size.  The first unit always starts.
bool start_another(double elapsed, std::size_t units, double seconds);

/// SplitMix64 step: derives independent per-run seeds from the
/// workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// One timed interval.  `parent` is the id of the span that caused it
/// (-1 for a root); spans of one request or job share `request`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Thread-safe in-memory span store.  A disabled tracer records
/// nothing and never reads the clock, so untraced runs pay no cost.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Opens a span now; returns its id (-1 when disabled).
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::uint64_t request);
  void close(std::int64_t id);
  /// Records an already measured interval.
  std::int64_t add(const std::string& name, double start, double end,
                   std::int64_t parent, std::uint64_t request);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; nests under the calling thread's innermost open span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_ = -1;
  std::int64_t saved_current_ = -1;
};

/// Per span name: count, total and self seconds (self = duration minus
/// the part of it that child spans cover).
struct SpanSummary {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans);

/// Everything one run reports.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// Metrics of the final result line by name (units: see main.cpp).
  std::map<std::string, double> metrics;
  /// Workload-specific figures printed on the info line only.
  std::map<std::string, double> details;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< nproc: solver and client thread budget
  /// The library's default backend, passed explicitly to the layer
  /// entry points that take one.
  phes::la::KernelBackend kernel = phes::core::SolverOptions{}.kernel;
};

/// Workload bodies.  Each fills the end-to-end metrics (trace off) or
/// the per-layer metrics (trace on) and the correctness counts.
void run_char_cold(const RunConfig& cfg, Report& report, Tracer& tracer);
void run_enforce_large(const RunConfig& cfg, Report& report,
                       Tracer& tracer);
void run_serve_mix(const RunConfig& cfg, Report& report, Tracer& tracer);

/// Traced-mode probe of the `hamiltonian` and `core` layers on one
/// model: a traced parallel solve (factorizations timed through a
/// SolveContext factory), a serial solve for the scheduler speedup, the
/// |lambda|max estimate, and Arnoldi cycles, Ritz extractions and
/// single-shift iterations replayed at the solve's logged shift
/// centres.  Writes the hamiltonian.* and core.* per-layer metrics.
void probe_layers(const phes::macromodel::SimoRealization& realization,
                  const RunConfig& cfg, Report& report, Tracer& tracer);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
