#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Innermost open span of the calling thread (ScopedSpan's default
/// parent).
thread_local std::int64_t t_current_span = -1;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool start_another(double elapsed, std::size_t units, double seconds) {
  if (units == 0) return true;
  return elapsed + 0.5 * elapsed / static_cast<double>(units) <= seconds;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(name, t, t, parent, request);
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::int64_t Tracer::add(const std::string& name, double start, double end,
                         std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name,
                       std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open(name, t_current_span, request);
  saved_current_ = t_current_span;
  t_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  tracer_.close(id_);
  t_current_span = saved_current_;
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the child intervals, clipped to the span: children that
    // overlap (parallel workers) are counted once.
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      const double lo = std::max(s.start, spans[c].start);
      const double hi = std::min(s.end, spans[c].end);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    SpanSummary& sum = out[s.name];
    sum.count += 1;
    sum.total_s += s.end - s.start;
    sum.self_s += (s.end - s.start) - covered;
  }
  return out;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
