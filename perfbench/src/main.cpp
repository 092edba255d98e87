// perfbench — the repository benchmark.
//
//   perfbench --workload <char_cold|enforce_large|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints one info line (host and build stamp, workload details, per-layer
// self times) and, as the last line of stdout, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1).  The traced run also writes its spans to
// .bench_out/trace-<workload>-<seed>.json.  perfbench/run.py builds this
// program from the checkout and forwards its output.

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "phes/server/protocol.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_s_p50", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"hamiltonian.factorize.count", "count"},
    {"hamiltonian.factorize.s_mean", "s"},
    {"hamiltonian.apply.count", "count"},
    {"hamiltonian.apply.s_mean", "s"},
    {"hamiltonian.apply.flops_computed", "flop"},
    {"hamiltonian.apply.bytes_computed", "B"},
    {"core.arnoldi.orth_s_per_cycle", "s"},
    {"core.ritz.values_s_per_cycle", "s"},
    {"core.ritz.vectors_s_per_cycle", "s"},
    {"core.single_shift.s_mean", "s"},
    {"core.single_shift.restarts_mean", "count"},
    {"core.solve.matvecs", "count"},
    {"core.solve.shifts", "count"},
    {"core.solve.shifts_eliminated", "count"},
    {"core.solve.crossings", "count"},
    {"core.lambda_max.s", "s"},
    {"core.lambda_max.matvecs", "count"},
    {"core.scheduler.busy_frac", "fraction"},
    {"core.scheduler.speedup", "ratio"},
    {"trace.overhead_frac", "fraction"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <char_cold|enforce_large|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return phes::server::json_quote(s); }

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// CPU brand string from cpuid (no file outside the checkout is read).
std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string host_json(const RunConfig& cfg) {
  std::ostringstream os;
  os << "{\"nproc\": " << cfg.threads << ", \"cpu\": " << quote(cpu_model())
     << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
     << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
     << ", \"kernel\": "
     << quote(phes::la::kernel_backend_name(cfg.kernel))
     << ", \"git_sha\": " << quote(env_or("PERFBENCH_GIT_SHA", "unknown"))
     << ", \"source_digest\": "
     << quote(env_or("PERFBENCH_SOURCE_DIGEST", "unknown"))
     << ", \"workload\": " << quote(cfg.workload) << ", \"seed\": " << cfg.seed
     << ", \"seconds\": " << num(cfg.seconds)
     << ", \"trace\": " << (cfg.trace ? 1 : 0) << "}";
  return os.str();
}

std::string object_json(const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    os << (first ? "" : ", ") << quote(name) << ": " << num(value);
    first = false;
  }
  os << "}";
  return os.str();
}

/// Self seconds per layer (the span-name prefix before the first dot).
std::map<std::string, double> layer_self_s(
    const std::map<std::string, SpanSummary>& sums) {
  std::map<std::string, double> self;
  for (const auto& [name, s] : sums) {
    self[name.substr(0, name.find('.'))] += s.self_s;
  }
  return self;
}

void write_trace(const RunConfig& cfg, const Tracer& tracer,
                 const std::map<std::string, SpanSummary>& sums) {
  namespace fs = std::filesystem;
  fs::create_directories(".bench_out");
  const std::string path = ".bench_out/trace-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".json";
  std::ofstream os(path);
  os << "{\"host\": " << host_json(cfg) << ",\n\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : sums) {
    os << (first ? "\n" : ",\n") << quote(name) << ": {\"count\": " << s.count
       << ", \"total_s\": " << num(s.total_s)
       << ", \"self_s\": " << num(s.self_s) << "}";
    first = false;
  }
  os << "},\n\"spans\": [";
  const auto spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
       << ", \"name\": " << quote(s.name) << ", \"start\": " << num(s.start)
       << ", \"end\": " << num(s.end) << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}";
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

int run(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(cfg.seconds > 0.0)) return usage();
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.threads = hw > 0 ? hw : 1;

  Report report;
  Tracer tracer(cfg.trace);
  if (cfg.workload == "char_cold") {
    run_char_cold(cfg, report, tracer);
  } else if (cfg.workload == "enforce_large") {
    run_enforce_large(cfg, report, tracer);
  } else if (cfg.workload == "serve_mix") {
    run_serve_mix(cfg, report, tracer);
  } else {
    return usage();
  }
  if (!cfg.trace) report.set("peak_rss_mb", peak_rss_mb());
  report.details["failed_frac"] =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);

  const auto sums = summarize(tracer.spans());
  if (cfg.trace) write_trace(cfg, tracer, sums);

  std::ostringstream info;
  info << "{\"info\": {\"host\": " << host_json(cfg)
       << ", \"details\": " << object_json(report.details)
       << ", \"layer_self_s\": " << object_json(layer_self_s(sums))
       << ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    info << (i ? ", " : "") << quote(report.errors[i]);
  }
  info << "]}}";
  std::printf("%s\n", info.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec.name);
    }
    out << (first ? "" : ", ") << quote(spec.name)
        << ": {\"value\": " << num(it->second)
        << ", \"unit\": " << quote(spec.unit) << "}";
    first = false;
  };
  if (cfg.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  out << "}}";
  if (report.attempted == 0) throw std::logic_error("no operation attempted");
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
