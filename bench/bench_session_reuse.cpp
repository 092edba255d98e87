// bench_session_reuse — ctest-registered micro-benchmark smoke target
// for the engine::SolverSession warm-start path.
//
// Scenarios (both on a seeded non-passive synthetic model):
//   1. verify-style re-solve: characterize cold, then re-solve the SAME
//      revision — must be warm and do fewer matvecs;
//   2. enforcement-style re-solve: perturb the residues
//      (update_residues), re-characterize — must be warm-started, reuse
//      the band estimate, and still beat the cold matvec count.
//
// Every solve builds exactly one factorization per processed shift,
// and the session's factorization total is the sum over its solves.
//
// Prints one BENCH-friendly JSON line per scenario and exits non-zero
// when any reuse invariant fails, so CI catches regressions of the
// session fast path, not just its correctness.

#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "phes/engine/session.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/la/matrix.hpp"
#include "test_support.hpp"

namespace {

using namespace phes;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;

  // Shared seeded-model fixture; 1.08 peak gain: clearly non-passive.
  const auto model = test::synthetic_model(1.08, 2011, 48, 3);

  core::SolverOptions opt;
  // One solver thread: the dynamic scheduler is then fully
  // deterministic (fixed RNG streams, fixed completion order), so the
  // asserted reuse invariants cannot flake under CI load.
  opt.threads = 1;

  engine::SolverSession session(model);
  const auto cold = session.solve(opt);
  expect(!cold.warm_started, "first solve must be cold");
  expect(!cold.passive, "benchmark model must be non-passive");
  expect(cold.factorizations > 0, "cold solve builds factorizations");

  // --- scenario 1: same-revision re-solve (the verify stage) ----------
  const auto warm_same = session.solve(opt);
  expect(warm_same.warm_started, "same-revision re-solve is warm");
  expect(warm_same.total_matvecs < cold.total_matvecs,
         "same-revision re-solve does fewer matvecs than cold");
  std::printf(
      "BENCH {\"bench\":\"session_reuse\",\"scenario\":\"same_revision\","
      "\"cold_matvecs\":%zu,\"warm_matvecs\":%zu,"
      "\"cold_factorizations\":%zu,\"warm_factorizations\":%zu,"
      "\"cold_seconds\":%.6f,\"warm_seconds\":%.6f}\n",
      cold.total_matvecs, warm_same.total_matvecs, cold.factorizations,
      warm_same.factorizations, cold.seconds, warm_same.seconds);

  // --- scenario 2: re-characterization after a residue update ---------
  la::RealMatrix c = session.realization().c();
  c *= 0.995;  // a perturbation of enforcement-step magnitude
  session.update_residues(c);
  const auto warm_next = session.solve(opt);
  expect(warm_next.warm_started, "post-update re-solve is warm");
  expect(warm_next.lambda_max_matvecs == 0,
         "post-update re-solve reuses the band estimate");
  expect(warm_next.total_matvecs < cold.total_matvecs,
         "post-update re-solve does fewer matvecs than cold");
  std::printf(
      "BENCH {\"bench\":\"session_reuse\",\"scenario\":\"after_update\","
      "\"cold_matvecs\":%zu,\"warm_matvecs\":%zu,"
      "\"cold_factorizations\":%zu,\"warm_factorizations\":%zu,"
      "\"seeded_shifts\":%zu,\"warm_seconds\":%.6f}\n",
      cold.total_matvecs, warm_next.total_matvecs, cold.factorizations,
      warm_next.factorizations, warm_next.seeded_shifts, warm_next.seconds);

  // --- factorization accounting ---------------------------------------
  std::size_t built = 0;
  for (const core::SolverResult* r : {&cold, &warm_same, &warm_next}) {
    expect(r->factorizations == r->shifts_processed,
           "every processed shift builds exactly one factorization");
    built += r->factorizations;
  }
  expect(session.stats().factorizations == built,
         "session factorizations equal the sum over its solves");

  if (failures > 0) {
    std::fprintf(stderr, "%d reuse invariant(s) failed\n", failures);
    return 1;
  }
  std::printf("session reuse invariants hold\n");
  return 0;
}
