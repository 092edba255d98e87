// serve_mix: an in-process JobServer with a durable data dir behind a
// TransportServer on AF_UNIX, driven by nproc closed-loop clients that
// send submit_inline and poll status until the job is terminal.  The
// corpus is 96 `phes_pipeline gen`-style Touchstone models (ports 2-4,
// order 24-60, alternating non-passive / passive), each submitted twice,
// so about half the jobs check out a pooled session and half start cold.
// The seed draws the submission order; the corpus itself is fixed.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "phes/io/touchstone.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "phes/util/json.hpp"
#include "phes/util/rng.hpp"
#include "phes/vf/vector_fitting.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using phes::pipeline::Stage;

constexpr std::size_t kModels = 96;
/// Client pause between status polls.
constexpr auto kPollInterval = std::chrono::milliseconds(10);

struct Model {
  std::string name;
  std::string text;  ///< Touchstone file contents
  std::size_t ports = 0;
  std::size_t states = 0;
  std::size_t poles = 0;  ///< VF poles per column: the column's order
};

/// The `phes_pipeline gen` recipe, extended to kModels files.
std::vector<Model> make_corpus() {
  const phes::io::TouchstoneFormat formats[] = {
      phes::io::TouchstoneFormat::kRI, phes::io::TouchstoneFormat::kMA,
      phes::io::TouchstoneFormat::kDB};
  std::vector<Model> corpus;
  for (std::size_t i = 0; i < kModels; ++i) {
    phes::macromodel::SyntheticModelSpec spec;
    spec.ports = 2 + i % 3;
    spec.states = 24 + 12 * (i % 4);
    spec.omega_min = 1.0;
    spec.omega_max = 30.0;
    spec.target_peak_gain = i % 2 == 0 ? 1.04 : 0.95;
    spec.seed = 2011 + i;
    const auto model = phes::macromodel::make_synthetic_model(spec);
    const auto samples = phes::macromodel::sample_model(model, 0.3, 90.0, 200);
    phes::io::TouchstoneMetadata meta;
    meta.format = formats[i % 3];
    std::ostringstream os;
    phes::io::save_touchstone(samples, os, meta);
    Model m;
    m.name = "case" + std::to_string(i + 1) + ".s" +
             std::to_string(spec.ports) + "p";
    m.text = os.str();
    m.ports = spec.ports;
    m.states = spec.states;
    const std::size_t per_column = (spec.states + spec.ports - 1) / spec.ports;
    m.poles = per_column + per_column % 2;
    corpus.push_back(std::move(m));
  }
  return corpus;
}

/// The gen recipe's (ports, order, peak) triple repeats every 12
/// corpus indices (lcm of 3, 4 and 2): 12 model classes.
constexpr std::size_t kClasses = 12;
static_assert(kModels % kClasses == 0);

/// Submission order: rounds of 24 jobs.  Round r submits the r-th
/// model of each class in a seed-drawn order, then the same 12 models
/// again in the same order.  Every round therefore has the same class
/// mix and half repeats, and a run that completes k rounds has run the
/// same jobs whatever the seed.  A repeat follows its first submission by
/// 12 jobs: late enough that the first has usually finished and returned
/// its session, and soon enough that the pool (16 idle sessions) has not
/// evicted it.
std::vector<std::size_t> job_order(std::uint64_t seed) {
  phes::util::Rng rng(seed, 3);
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < kModels / kClasses; ++r) {
    std::vector<std::size_t> round(kClasses);
    for (std::size_t c = 0; c < kClasses; ++c) round[c] = r * kClasses + c;
    for (std::size_t i = kClasses - 1; i > 0; --i) {
      std::swap(round[i], round[rng() % (i + 1)]);
    }
    order.insert(order.end(), round.begin(), round.end());
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

/// One JobServer with a durable data dir under .bench_run, served over
/// an AF_UNIX TransportServer.  The socket path is relative to the
/// checkout so it stays within the AF_UNIX path limit.
class Instance {
 public:
  Instance(const std::string& dir, std::size_t queue_capacity) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    phes::server::ServerOptions opt;
    opt.data_dir = dir_ + "/data";
    opt.queue_capacity = queue_capacity;
    server_ = std::make_unique<phes::server::JobServer>(opt);
    socket_ = dir_ + "/s.sock";
    transport_ = std::make_unique<phes::server::TransportServer>(
        *server_, std::make_unique<phes::server::UnixTransport>(socket_));
    transport_->start();
  }
  ~Instance() {
    transport_->stop();
    server_->shutdown(true);
    transport_.reset();
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::remove(fs::path(dir_).parent_path(), ec);  // only when empty
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] phes::server::JobServer& server() { return *server_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<phes::server::JobServer> server_;
  std::unique_ptr<phes::server::TransportServer> transport_;
};

struct Job {
  std::size_t model = 0;
  std::uint64_t id = 0;
  bool admitted = false;
  double submit = 0.0;  ///< submit request sent
  double ack = 0.0;     ///< submit acknowledged
  double done = 0.0;    ///< first status response showing a terminal state
  std::string state;
  std::string status;
  std::vector<std::pair<double, double>> polls;  ///< status round trips
};

struct StageEvent {
  std::uint64_t id = 0;
  Stage stage = Stage::kLoad;
  double t = 0.0;
};

struct Phase {
  std::vector<Job> jobs;
  std::vector<StageEvent> stages;
  std::vector<double> fit_rms;
  std::size_t pooled = 0;  ///< jobs whose result reports a reused session
  phes::util::JsonValue stats;
};

std::string submit_line(const Model& m) {
  return "{\"op\": \"submit_inline\", \"format\": \"touchstone\", "
         "\"ports\": " +
         std::to_string(m.ports) + ", \"name\": " +
         phes::server::json_quote(m.name) + ", \"options\": {\"poles\": " +
         std::to_string(m.poles) + "}, \"payload\": " +
         phes::server::json_quote(m.text) + "}";
}

/// Hands out job-list indices to the clients in whole 24-job rounds
/// (paced by start_another), so the measured jobs always have the same
/// class mix and repeat share.
class Dispenser {
 public:
  Dispenser(std::size_t size, double start, double seconds)
      : size_(size), start_(start), seconds_(seconds) {}

  /// Next index to run, or false when the run is over.
  bool take(std::size_t* idx) {
    constexpr std::size_t kRound = 2 * kClasses;
    std::lock_guard<std::mutex> lock(mutex_);
    if (next_ % kRound == 0 &&
        (next_ >= size_ ||
         !start_another(now_s() - start_, next_ / kRound, seconds_))) {
      return false;
    }
    *idx = next_++;
    return true;
  }

 private:
  std::mutex mutex_;
  std::size_t next_ = 0;
  std::size_t size_;
  double start_;
  double seconds_;
};

/// One client's closed loop: take the next job, submit it, poll its
/// status until terminal.
void client_loop(const std::string& socket, const std::vector<Model>& corpus,
                 const std::vector<std::size_t>& order, Dispenser& dispenser,
                 std::vector<Job>& out) {
  phes::server::Client client(socket);
  std::size_t idx = 0;
  while (dispenser.take(&idx)) {
    Job job;
    job.model = order[idx];
    job.submit = now_s();
    const auto ack =
        phes::util::JsonValue::parse(client.request(submit_line(corpus[job.model])));
    job.ack = now_s();
    job.admitted = ack.bool_or("ok", false);
    if (job.admitted) {
      job.id = ack.uint_or("id", 0);
      const std::string poll =
          "{\"op\": \"status\", \"id\": " + std::to_string(job.id) + "}";
      while (true) {
        std::this_thread::sleep_for(kPollInterval);
        const double t0 = now_s();
        const auto resp = phes::util::JsonValue::parse(client.request(poll));
        const double t1 = now_s();
        job.polls.emplace_back(t0, t1);
        const phes::util::JsonValue* rec = resp.find("job");
        if (rec == nullptr) break;
        job.state = rec->string_or("state", "");
        if (job.state == "done" || job.state == "failed" ||
            job.state == "cancelled") {
          job.status = rec->string_or("status", "");
          job.done = t1;
          break;
        }
      }
    }
    out.push_back(std::move(job));
  }
}

/// Runs the closed loop against a fresh server instance for `seconds`
/// and checks every job.
Phase run_phase(const std::vector<Model>& corpus,
                const std::vector<std::size_t>& order, const RunConfig& cfg,
                double seconds, bool observe_stages, Report& report,
                std::vector<phes::server::JobTrace>* traces) {
  Instance inst(".bench_run/" + std::to_string(::getpid()), order.size());
  Phase phase;
  std::mutex mu;
  if (observe_stages) {
    inst.server().set_stage_observer([&](std::uint64_t id, Stage stage) {
      const double t = now_s();
      std::lock_guard<std::mutex> lock(mu);
      phase.stages.push_back({id, stage, t});
    });
  }
  std::vector<std::vector<Job>> per_client(cfg.threads);
  const double start = now_s();
  Dispenser dispenser(order.size(), start, seconds);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < cfg.threads; ++c) {
      clients.emplace_back([&, c] {
        try {
          client_loop(inst.socket(), corpus, order, dispenser, per_client[c]);
        } catch (const std::exception& e) {
          Job failed;
          failed.status = std::string("client error: ") + e.what();
          per_client[c].push_back(failed);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  for (auto& v : per_client) {
    for (auto& j : v) phase.jobs.push_back(std::move(j));
  }
  phes::server::Client client(inst.socket());
  phase.stats = phes::util::JsonValue::parse(client.request("{\"op\": \"stats\"}"));

  for (const Job& job : phase.jobs) {
    const auto result =
        job.admitted ? inst.server().result(job.id) : std::nullopt;
    const bool ok = job.admitted && job.state == "done" &&
                    (job.status == "passive" || job.status == "enforced") &&
                    result && result->certified_passive;
    report.check(ok, "serve_mix: job " + std::to_string(job.id) + " (" +
                         corpus[job.model].name + ") ended " + job.state +
                         " / " + job.status);
    if (result) {
      phase.fit_rms.push_back(result->fit_rms);
      phase.pooled += result->session_reused;
    }
    if (traces != nullptr && job.admitted) {
      if (auto t = inst.server().trace(job.id)) traces->push_back(*t);
    }
  }
  return phase;
}

double share(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// End-to-end figures of one phase.
void summarize_phase(const Phase& phase, Report& report,
                     std::vector<double>* job_seconds) {
  std::vector<double> lat;
  double last_done = 0.0;
  double first_submit = 1e300;
  for (const Job& j : phase.jobs) {
    if (j.done <= 0.0) continue;
    lat.push_back(j.done - j.submit);
    last_done = std::max(last_done, j.done);
    first_submit = std::min(first_submit, j.submit);
  }
  if (job_seconds != nullptr) *job_seconds = lat;
  report.details["jobs"] = static_cast<double>(lat.size());
  report.details["job_s_p50"] = quantile(lat, 0.5);
  report.details["job_s_p90"] = quantile(lat, 0.9);
  report.details["jobs_per_s"] =
      static_cast<double>(lat.size()) / std::max(1e-9, last_done - first_submit);
}

}  // namespace

void run_serve_mix(const RunConfig& cfg, Report& report, Tracer& tracer) {
  // Set-up: build the corpus and bring a server up and down.
  std::vector<double> setups;
  std::vector<Model> corpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    corpus = make_corpus();
    {
      Instance inst(".bench_run/" + std::to_string(::getpid()) + "-setup", 8);
      phes::server::Client client(inst.socket());
      (void)client.request("{\"op\": \"ping\"}");
    }
    setups.push_back(now_s() - t0);
  }
  const auto order = job_order(cfg.seed);

  // Workload properties a later gain may depend on.
  const auto pool_figures = [&](const Phase& phase) {
    report.details["pooled_share"] = share(phase.pooled, phase.jobs.size());
    std::size_t nonpassive = 0;
    for (const Job& j : phase.jobs) nonpassive += j.status == "enforced";
    report.details["nonpassive_share"] = share(nonpassive, phase.jobs.size());
    report.details["fit_rms_p50"] = quantile(phase.fit_rms, 0.5);
  };

  if (!cfg.trace) {
    const Phase phase =
        run_phase(corpus, order, cfg, cfg.seconds, false, report, nullptr);
    std::vector<double> lat;
    summarize_phase(phase, report, &lat);
    pool_figures(phase);
    report.set("setup_s", quantile(setups, 0.5));
    report.set("latency_s_p50", quantile(lat, 0.5));
    report.set("throughput_per_s", report.details["jobs_per_s"]);
    return;
  }

  // Traced mode: an untraced phase, then a traced phase on a fresh
  // server (so pool state does not carry over), then in-process io/vf
  // and the hamiltonian/core probe on a fitted corpus model.
  const Phase untraced =
      run_phase(corpus, order, cfg, cfg.seconds / 2, false, report, nullptr);
  std::vector<double> lat_untraced;
  summarize_phase(untraced, report, &lat_untraced);
  std::vector<phes::server::JobTrace> traces;
  const Phase traced =
      run_phase(corpus, order, cfg, cfg.seconds / 2, true, report, &traces);
  std::vector<double> lat_traced;
  summarize_phase(traced, report, &lat_traced);
  pool_figures(traced);
  report.set("trace.overhead_frac",
             quantile(lat_traced, 0.5) / quantile(lat_untraced, 0.5) - 1.0);

  // Client-side spans: job (submit -> terminal), submit and status round
  // trips, and pipeline stages from the stage observer, the last stage
  // closed by the terminal status.
  std::map<std::uint64_t, std::vector<StageEvent>> by_job;
  for (const auto& e : traced.stages) by_job[e.id].push_back(e);
  std::map<std::string, std::vector<double>> stage_s;
  std::vector<double> queue_wait, submit_rtt, status_rtt;
  double polls = 0.0;
  std::size_t finished = 0;
  for (const Job& j : traced.jobs) {
    if (j.done <= 0.0) continue;
    ++finished;
    const std::int64_t root = tracer.add("server.job", j.submit, j.done, -1, j.id);
    tracer.add("server.submit", j.submit, j.ack, root, j.id);
    submit_rtt.push_back(j.ack - j.submit);
    for (const auto& [t0, t1] : j.polls) {
      tracer.add("server.status", t0, t1, root, j.id);
      status_rtt.push_back(t1 - t0);
    }
    polls += static_cast<double>(j.polls.size());
    auto& events = by_job[j.id];
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.t < b.t; });
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double end = i + 1 < events.size() ? events[i + 1].t : j.done;
      const std::string name =
          std::string("pipeline.") + phes::pipeline::stage_name(events[i].stage);
      tracer.add(name, events[i].t, end, root, j.id);
      stage_s[name].push_back(end - events[i].t);
    }
    if (!events.empty()) queue_wait.push_back(events.front().t - j.submit);
  }
  auto& d = report.details;
  for (const char* stage :
       {"load", "fit", "realize", "characterize", "enforce", "verify"}) {
    d[std::string("pipeline.stage.") + stage + "_s_p50"] =
        quantile(stage_s[std::string("pipeline.") + stage], 0.5);
  }
  d["server.queue_wait_s_p50"] = quantile(queue_wait, 0.5);
  d["server.submit_rtt_s_p50"] = quantile(submit_rtt, 0.5);
  d["server.status_rtt_s_p50"] = quantile(status_rtt, 0.5);
  d["server.polls_per_job"] = polls / static_cast<double>(std::max<std::size_t>(1, finished));
  if (const auto* store = traced.stats.find("store")) {
    d["server.storage.bytes_per_job"] =
        share(store->uint_or("bytes", 0), store->uint_or("records", 0));
  }
  if (const auto* transport = traced.stats.find("transport")) {
    d["server.dispatch.rejected"] =
        static_cast<double>(transport->uint_or("rejected", 0));
  }
  if (const auto* pool = traced.stats.find("session_pool")) {
    d["engine.pool.hit_ratio"] =
        share(pool->uint_or("pool_hits", 0), pool->uint_or("checkouts", 0));
  }
  // Engine figures from the server's own per-job stage traces: verify
  // re-solves the characterized (or enforced) revision warm.
  double cold = 0.0, verify = 0.0, hits = 0.0, lookups = 0.0, facts = 0.0;
  for (const auto& t : traces) {
    for (const auto& s : t.spans) {
      if (s.stage == "characterize") cold += static_cast<double>(s.matvecs);
      if (s.stage == "verify") verify += static_cast<double>(s.matvecs);
    }
    hits += static_cast<double>(t.cache_hits);
    lookups += static_cast<double>(t.cache_hits + t.cache_misses);
    facts += static_cast<double>(t.factorizations);
  }
  d["engine.warm_same.matvec_ratio"] = cold > 0 ? verify / cold : 0.0;
  d["engine.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  d["engine.cache.factorizations"] =
      facts / static_cast<double>(std::max<std::size_t>(1, traces.size()));

  // io and vf in-process over the first 16 models of the job order; the
  // probe then runs on the fitted model with the most states.
  std::vector<double> load_s, fit_s, iters;
  std::unique_ptr<phes::macromodel::SimoRealization> probe_model;
  std::size_t probe_states = 0;
  for (std::size_t i = 0; i < 16 && i < order.size(); ++i) {
    const Model& m = corpus[order[i]];
    const std::uint64_t req = 2'000'000 + i;
    phes::macromodel::FrequencySamples samples;
    {
      ScopedSpan span(tracer, "io.load", req);
      const double t0 = now_s();
      samples = phes::pipeline::parse_input_text(
          m.text, phes::pipeline::InputFormat::kTouchstone, m.ports);
      load_s.push_back(now_s() - t0);
    }
    phes::vf::VectorFittingOptions vf_opt;
    vf_opt.num_poles = m.poles;
    vf_opt.threads = 1;
    ScopedSpan span(tracer, "vf.fit", req);
    const double t0 = now_s();
    auto fit = phes::vf::vector_fit(samples, vf_opt);
    fit_s.push_back(now_s() - t0);
    iters.push_back(static_cast<double>(fit.iterations_used));
    if (m.poles * m.ports > probe_states) {
      probe_states = m.poles * m.ports;
      probe_model =
          std::make_unique<phes::macromodel::SimoRealization>(fit.model);
    }
  }
  d["io.load.s_p50"] = quantile(load_s, 0.5);
  d["vf.fit.s_p50"] = quantile(fit_s, 0.5);
  d["vf.fit.iterations_mean"] = mean(iters);
  probe_layers(*probe_model, cfg, report, tracer);
}

}  // namespace perfbench
