// Pipeline subsystem tests: the stage machine, input dispatch, error
// capture, the two-level parallelism plan, and the end-to-end path
// from a synthetic non-passive model to a certified-passive result.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/samples_io.hpp"
#include "phes/pipeline/batch.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/util/json.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::Stage;
using test::non_passive_samples;

PipelineJob make_job(macromodel::FrequencySamples samples) {
  PipelineJob job;
  job.name = "in-memory";
  job.samples = std::move(samples);
  job.options.fit.num_poles = 12;
  return job;
}

TEST(Pipeline, StageNamesRoundTrip) {
  for (const Stage stage :
       {Stage::kLoad, Stage::kFit, Stage::kRealize, Stage::kCharacterize,
        Stage::kEnforce, Stage::kVerify}) {
    EXPECT_EQ(pipeline::parse_stage(pipeline::stage_name(stage)), stage);
  }
  EXPECT_THROW((void)pipeline::parse_stage("bogus"), std::invalid_argument);
}

// ---- Job-options codec ------------------------------------------------

/// The options the codec reads and writes, comparable as one value.
auto codec_fields(const pipeline::JobOptions& o) {
  return std::make_tuple(o.fit.num_poles, o.fit.iterations,
                         o.session.warm_start, o.stop_after, o.solver.kernel);
}

TEST(JobOptionsCodec, EveryFlagRoundTripsThroughTheSpec) {
  // A non-default value for each flag-table entry.
  const std::map<std::string, std::string> values = {
      {"--poles", "7"},        {"--vf-iters", "3"},
      {"--no-warm-start", ""}, {"--stop-after", "fit"},
      {"--kernel", "reference"}};
  ASSERT_EQ(std::size(pipeline::kJobOptionFlags), values.size());
  const pipeline::JobOptions defaults;
  for (const pipeline::JobOptionFlag& flag : pipeline::kJobOptionFlags) {
    SCOPED_TRACE(flag.flag);
    // CLI flag -> options JSON -> JobOptions.
    const std::string member =
        pipeline::job_option_member(flag, values.at(flag.flag));
    EXPECT_EQ(member.rfind("\"" + std::string(flag.key) + "\": ", 0), 0u);
    const pipeline::JobOptions applied = pipeline::apply_job_options(
        util::JsonValue::parse("{" + member + "}"), defaults);
    EXPECT_NE(codec_fields(applied), codec_fields(defaults));
    // JobOptions -> spec -> JobOptions.  The kernel backend is the one
    // option the spec leaves out, so a replay takes the server's.
    PipelineJob job;
    job.input_path = "m.s2p";
    job.options = applied;
    const pipeline::JobOptions back =
        pipeline::read_job_spec_json(pipeline::write_job_spec_json(job))
            .options;
    if (std::string(flag.key) == "kernel") {
      EXPECT_EQ(applied.solver.kernel, la::KernelBackend::kReference);
      EXPECT_EQ(codec_fields(back), codec_fields(defaults));
    } else {
      EXPECT_EQ(codec_fields(back), codec_fields(applied));
    }
  }
}

TEST(JobOptionsCodec, CountsRejectSignsAndJunk) {
  EXPECT_EQ(pipeline::parse_count("12", "n"), 12u);
  for (const char* bad :
       {"-1", "+1", " 1", "", "1x", "0x10", "99999999999999999999999"}) {
    EXPECT_THROW((void)pipeline::parse_count(bad, "n"), std::invalid_argument)
        << "'" << bad << "'";
  }
  // `--poles -1` must not reach the fit as SIZE_MAX.
  EXPECT_THROW(
      (void)pipeline::job_option_member(pipeline::kJobOptionFlags[0], "-1"),
      std::invalid_argument);
}

TEST(JobOptionsCodec, MiBCountsThatOverflowBytesAreRejected) {
  EXPECT_EQ(pipeline::parse_mib("0", "n"), 0u);
  EXPECT_EQ(pipeline::parse_mib("256", "n"), std::size_t{256} << 20);
  const std::size_t max_mib = std::numeric_limits<std::size_t>::max() >> 20;
  EXPECT_EQ(pipeline::parse_mib(std::to_string(max_mib), "n"),
            max_mib << 20);
  // 2^44 and 2^44 + 1 MiB used to wrap to 0 (unbounded) and 1 MiB.
  for (const char* bad : {"17592186044416", "17592186044417", "-1", "1x"}) {
    EXPECT_THROW((void)pipeline::parse_mib(bad, "n"), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(JobOptionsCodec, SecondsMustBeFiniteAndNonNegative) {
  EXPECT_EQ(pipeline::parse_seconds("0", "t"), 0.0);
  EXPECT_EQ(pipeline::parse_seconds("2.5", "t"), 2.5);
  EXPECT_EQ(pipeline::parse_seconds("1e3", "t"), 1000.0);
  for (const char* bad :
       {"nan", "NAN", "-nan", "inf", "-inf", "1e999", "-1", "", "1s"}) {
    EXPECT_THROW((void)pipeline::parse_seconds(bad, "t"),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(JobOptionsCodec, UnknownNamesThrowUnlessLenient) {
  const pipeline::JobOptions defaults;
  for (const char* text :
       {R"({"stop_after": "bogus"})", R"({"kernel": "bogus"})"}) {
    SCOPED_TRACE(text);
    const auto options = util::JsonValue::parse(text);
    EXPECT_THROW((void)pipeline::apply_job_options(options, defaults),
                 std::invalid_argument);
    EXPECT_EQ(codec_fields(pipeline::apply_job_options(options, defaults,
                                                       /*lenient=*/true)),
              codec_fields(defaults));
  }
  // Unknown keys are ignored; a mistyped count is an error either way.
  EXPECT_EQ(codec_fields(pipeline::apply_job_options(
                util::JsonValue::parse(R"({"future": 1})"), defaults)),
            codec_fields(defaults));
  EXPECT_THROW((void)pipeline::apply_job_options(
                   util::JsonValue::parse(R"({"poles": "8"})"), defaults,
                   /*lenient=*/true),
               std::runtime_error);
}

TEST(Pipeline, EndToEndEnforcesPassivity) {
  auto job = make_job(non_passive_samples(7));
  const auto result = run_pipeline(job);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.status(), "enforced");
  EXPECT_TRUE(result.certified_passive);
  EXPECT_TRUE(result.enforcement_run);
  EXPECT_FALSE(result.initial_report.passive);
  EXPECT_GT(result.initial_report.bands.size(), 0u);
  EXPECT_TRUE(result.final_report.passive);
  EXPECT_EQ(result.final_report.bands.size(), 0u);

  // All six stages ran, in order, with non-negative timings.
  ASSERT_EQ(result.stage_timings.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.stage_timings[i].stage, static_cast<Stage>(i));
    EXPECT_GE(result.stage_timings[i].seconds, 0.0);
  }
  EXPECT_GT(result.order, 0u);
  EXPECT_EQ(result.ports, 2u);

  // One session carried the job: the enforcement rounds and the verify
  // stage were warm-started.
  EXPECT_GE(result.session.solves, 3u);  // characterize + >=1 round + verify
  EXPECT_GE(result.session.warm_solves, 2u);
  EXPECT_TRUE(result.final_report.solver.warm_started);
}

TEST(Pipeline, StopAfterFitShortCircuits) {
  auto job = make_job(non_passive_samples(7));
  job.options.stop_after = Stage::kFit;
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.status(), "stopped@fit");
  EXPECT_EQ(result.stage_timings.size(), 2u);
  EXPECT_GT(result.fit_rms, 0.0);
}

TEST(Pipeline, LoadFailureIsCapturedNotThrown) {
  PipelineJob job;
  job.input_path = "/nonexistent/model.s2p";
  const auto result = run_pipeline(job);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.failed_stage, Stage::kLoad);
  EXPECT_NE(result.error.find("load:"), std::string::npos);
  EXPECT_EQ(result.status(), "failed@load");
}

TEST(Pipeline, LoadDispatchesOnExtension) {
  const auto samples = non_passive_samples(11);
  io::save_touchstone_file(samples, "/tmp/phes_pipeline_in.s2p", {});
  macromodel::save_samples_file(samples, "/tmp/phes_pipeline_in.txt");

  const auto from_ts = pipeline::load_input("/tmp/phes_pipeline_in.s2p");
  const auto from_txt = pipeline::load_input("/tmp/phes_pipeline_in.txt");
  EXPECT_EQ(from_ts.count(), samples.count());
  EXPECT_EQ(from_txt.count(), samples.count());
  EXPECT_EQ(from_ts.ports(), 2u);
  EXPECT_NEAR(from_ts.omega.back(), samples.omega.back(),
              1e-9 * samples.omega.back());
}

TEST(Pipeline, InlineTextInputMatchesThePathRoute) {
  // The same Touchstone bytes, submitted as a file path and as an
  // in-memory payload, must produce bit-identical pipeline results —
  // the invariant the server's submit_inline op rests on.
  const auto samples = non_passive_samples(11);
  const std::string path = "/tmp/phes_pipeline_inline.s2p";
  io::save_touchstone_file(samples, path, {});
  std::ostringstream contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents << in.rdbuf();
  }

  PipelineJob by_path;
  by_path.input_path = path;
  by_path.options.fit.num_poles = 10;
  by_path.options.solver.threads = 1;
  PipelineJob by_text;
  by_text.name = "inline";
  by_text.input_text = contents.str();
  by_text.input_ports = 2;  // kAuto + ports>0 => Touchstone
  by_text.options = by_path.options;

  const auto from_path = run_pipeline(by_path);
  const auto from_text = run_pipeline(by_text);
  ASSERT_TRUE(from_path.ok) << from_path.error;
  ASSERT_TRUE(from_text.ok) << from_text.error;
  EXPECT_EQ(from_text.sample_count, from_path.sample_count);
  EXPECT_EQ(from_text.ports, from_path.ports);
  EXPECT_EQ(from_text.fit_rms, from_path.fit_rms);  // exact
  EXPECT_EQ(from_text.status(), from_path.status());
  ASSERT_EQ(from_text.initial_report.crossings.size(),
            from_path.initial_report.crossings.size());
  for (std::size_t i = 0; i < from_text.initial_report.crossings.size();
       ++i) {
    EXPECT_DOUBLE_EQ(from_text.initial_report.crossings[i],
                     from_path.initial_report.crossings[i]);
  }

  // The phes-samples text format goes through the same inline route.
  std::ostringstream samples_text;
  macromodel::save_samples(samples, samples_text);
  const auto parsed = pipeline::parse_input_text(
      samples_text.str(), pipeline::InputFormat::kSamples, 0);
  EXPECT_EQ(parsed.count(), samples.count());

  // Touchstone text without a port count cannot be parsed.
  EXPECT_THROW((void)pipeline::parse_input_text(
                   contents.str(), pipeline::InputFormat::kTouchstone, 0),
               std::runtime_error);
  // A broken payload fails inside the load stage, captured not thrown.
  PipelineJob bad;
  bad.input_text = "not a touchstone file";
  bad.input_ports = 2;
  const auto failed = run_pipeline(bad);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.failed_stage, Stage::kLoad);
}

TEST(Pipeline, BatchDuplicateModelsAgreeBitForBit) {
  // Four jobs over ONE model, one worker: every job runs on its own
  // session, and all four crossing sets agree bit for bit.
  const auto samples = non_passive_samples(7, 20);
  std::vector<PipelineJob> jobs;
  for (int i = 0; i < 4; ++i) {
    PipelineJob job = make_job(samples);
    job.name = "dup-" + std::to_string(i);
    job.options.fit.num_poles = 10;
    job.options.stop_after = Stage::kCharacterize;
    jobs.push_back(std::move(job));
  }

  pipeline::BatchOptions options;
  options.job_workers = 1;
  options.solver_threads = 1;
  const auto results = pipeline::BatchRunner(options).run(jobs);

  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(results[i].initial_report.crossings.size(),
              results[0].initial_report.crossings.size());
    for (std::size_t k = 0; k < results[i].initial_report.crossings.size();
         ++k) {
      EXPECT_DOUBLE_EQ(results[i].initial_report.crossings[k],
                       results[0].initial_report.crossings[k]);
    }
  }
}

TEST(Pipeline, ParallelismPlanSplitsTheBudget) {
  // Plenty of jobs: all threads go to job-level parallelism.
  auto plan = pipeline::plan_parallelism(8, 16);
  EXPECT_EQ(plan.job_workers, 8u);
  EXPECT_EQ(plan.solver_threads, 1u);
  // Few jobs: leftover threads feed each job's solver.
  plan = pipeline::plan_parallelism(8, 2);
  EXPECT_EQ(plan.job_workers, 2u);
  EXPECT_EQ(plan.solver_threads, 4u);
  // Degenerate inputs stay sane.
  plan = pipeline::plan_parallelism(1, 0);
  EXPECT_EQ(plan.job_workers, 1u);
  EXPECT_EQ(plan.solver_threads, 1u);
}

TEST(Pipeline, BatchRunsAllJobsAndIsolatesFailures) {
  // Two good jobs (one via Touchstone file, one in memory), one doomed.
  const auto samples = non_passive_samples(3);
  io::save_touchstone_file(samples, "/tmp/phes_pipeline_batch.s2p", {});
  {
    std::ofstream bad("/tmp/phes_pipeline_batch_bad.s2p");
    bad << "# Hz S RI\n1.0 0.5\n";  // truncated record
  }

  std::vector<PipelineJob> jobs(3);
  jobs[0].name = "file-job";
  jobs[0].input_path = "/tmp/phes_pipeline_batch.s2p";
  jobs[0].options.fit.num_poles = 12;
  jobs[1] = make_job(non_passive_samples(5));
  jobs[1].options.stop_after = Stage::kCharacterize;
  jobs[2].name = "bad-job";
  jobs[2].input_path = "/tmp/phes_pipeline_batch_bad.s2p";

  pipeline::BatchOptions options;
  options.total_threads = 2;
  const pipeline::BatchRunner runner(options);
  const auto results = runner.run(jobs);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "file-job");  // order preserved
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].certified_passive);
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[1].status(), "stopped@characterize");
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].failed_stage, Stage::kLoad);
  EXPECT_NE(results[2].error.find("truncated"), std::string::npos);

  EXPECT_EQ(pipeline::count_succeeded(results), 2u);
  const auto table = pipeline::summary_table(results);
  EXPECT_EQ(table.rows(), 3u);
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

TEST(Pipeline, SummaryJsonAndCsvAreWrittenAndParseable) {
  std::vector<PipelineJob> jobs(2);
  jobs[0] = make_job(non_passive_samples(7));
  jobs[0].name = "full-job";
  jobs[1] = make_job(non_passive_samples(5));
  jobs[1].name = "fit-only";
  jobs[1].options.stop_after = Stage::kFit;

  pipeline::BatchOptions options;
  options.total_threads = 2;
  const auto results = pipeline::BatchRunner(options).run(jobs);
  ASSERT_EQ(pipeline::count_succeeded(results), 2u);

  // --- JSON ---
  const std::string json_path = "/tmp/phes_summary_test.json";
  pipeline::write_summary_json_file(results, json_path);
  std::ifstream jf(json_path);
  ASSERT_TRUE(jf.good());
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  const std::string json = jbuf.str();

  EXPECT_NE(json.find("\"jobs\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"full-job\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fit-only\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"enforced\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"stopped@fit\""), std::string::npos);
  // The full job's session stats are reported verbatim.
  const std::string factorizations_field =
      "\"factorizations\": " +
      std::to_string(results[0].session.factorizations);
  EXPECT_NE(json.find(factorizations_field), std::string::npos) << json;
  EXPECT_NE(json.find("\"summary\": { \"jobs\": 2, \"succeeded\": 2"),
            std::string::npos);
  // A fit-only job reports no characterize products.
  EXPECT_NE(json.find("\"bands_initial\": null"), std::string::npos);

  // --- CSV ---
  const std::string csv_path = "/tmp/phes_summary_test.csv";
  pipeline::write_summary_csv_file(results, csv_path);
  std::ifstream cf(csv_path);
  ASSERT_TRUE(cf.good());
  std::string header_line;
  ASSERT_TRUE(std::getline(cf, header_line));
  const auto header = split_csv_line(header_line);
  std::size_t factorizations_col = header.size();
  std::size_t status_col = header.size();
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "factorizations") factorizations_col = i;
    if (header[i] == "status") status_col = i;
  }
  ASSERT_LT(factorizations_col, header.size());
  ASSERT_LT(status_col, header.size());

  std::string row;
  std::size_t rows = 0;
  while (std::getline(cf, row)) {
    const auto cells = split_csv_line(row);
    ASSERT_EQ(cells.size(), header.size()) << row;
    if (rows == 0) {
      EXPECT_EQ(cells[status_col], "enforced");
      EXPECT_EQ(cells[factorizations_col],
                std::to_string(results[0].session.factorizations));
    } else {
      EXPECT_EQ(cells[status_col], "stopped@fit");
      EXPECT_EQ(cells[factorizations_col], "0");
    }
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(Pipeline, AlreadyPassiveModelSkipsEnforcement) {
  auto job = make_job(test::passive_samples(21));
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status(), "passive");
  EXPECT_FALSE(result.enforcement_run);
  EXPECT_TRUE(result.certified_passive);
}

TEST(Pipeline, CancellationStopsAtStageBoundary) {
  auto job = make_job(non_passive_samples(7));
  std::atomic<bool> cancel{false};
  pipeline::PipelineContext context;
  context.cancel = &cancel;
  std::vector<Stage> started;
  context.on_stage_start = [&](Stage stage) {
    started.push_back(stage);
    if (stage == Stage::kFit) cancel.store(true);
  };
  const auto result = run_pipeline(job, context);

  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.failed_stage, Stage::kRealize);
  EXPECT_EQ(result.status(), "cancelled@realize");
  ASSERT_EQ(started.size(), 2u);  // load + fit ran, realize never started
  EXPECT_EQ(result.stage_timings.size(), 2u);
  EXPECT_NE(result.error.find("cancelled"), std::string::npos);
}

TEST(Pipeline, PreCancelledJobRunsNothing) {
  auto job = make_job(non_passive_samples(7));
  std::atomic<bool> cancel{true};
  pipeline::PipelineContext context;
  context.cancel = &cancel;
  const auto result = run_pipeline(job, context);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.status(), "cancelled@load");
  EXPECT_TRUE(result.stage_timings.empty());
}

TEST(Pipeline, JobIdIsCarriedOntoTheResult) {
  auto job = make_job(non_passive_samples(7));
  job.id = 42;
  job.options.stop_after = Stage::kFit;
  const auto result = run_pipeline(job);
  EXPECT_EQ(result.id, 42u);
}

}  // namespace
}  // namespace phes
