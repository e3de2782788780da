// The batched many-platform engine and the patient-cohort generator:
// per-patient determinism of the cohort fan-out, batch/scalar/sharded
// byte-identity of records, counters and final snapshots, and honest
// fallback of diverging lanes.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/lockstep.h"
#include "ecg/cohort.h"
#include "scenario/batch.h"
#include "scenario/engine.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/shard.h"
#include "sim/batch/lane_group.h"
#include "sim/platform.h"
#include "sim/snapshot.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/batch_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small cohort sweep over one windowed workload (2 windows per run).
std::vector<RunSpec> cohort_specs(const std::string& workload,
                                  unsigned patients, unsigned cores = 4,
                                  unsigned samples = 256,
                                  DesignVariant design =
                                      DesignVariant::synchronized()) {
  Matrix matrix;
  matrix.workloads({workload});
  matrix.design(design);
  matrix.num_cores({cores});
  matrix.samples({samples});
  matrix.cohort(patients);
  return matrix.expand();
}

std::string scalar_csv(const std::vector<RunSpec>& specs) {
  const Engine engine(Registry::builtins());
  return to_csv(engine.run(specs));
}

/// Batch records — leader and follower lanes alike — must match the scalar
/// engine's byte for byte in every format: CSV and JSON.
void expect_scalar_bytes(const std::vector<RunRecord>& records,
                         const std::vector<RunSpec>& specs) {
  const std::vector<RunRecord> scalar = Engine(Registry::builtins()).run(specs);
  EXPECT_EQ(to_csv(records), to_csv(scalar));
  EXPECT_EQ(to_json(records), to_json(scalar));
}

/// The scalar reference for snapshot comparisons: one cold platform driven
/// by the workload's own host loop, prepared exactly like the engine does.
sim::Snapshot scalar_final_snapshot(const RunSpec& spec) {
  const auto workload = Registry::builtins().make(spec.workload, spec.params);
  sim::Platform platform(resolved_config(spec, *workload));
  platform.load_program(workload->program(spec.with_synchronizer()));
  workload->load_inputs(platform);
  core::LockstepAnalyzer analyzer;
  analyzer.attach(platform);
  (void)workload->drive(platform, spec.max_cycles);
  return platform.save_snapshot();
}

// --- cohort generator -------------------------------------------------------

TEST(Cohort, DistSampleIsClampedAndFrozenByZeroStddev) {
  util::Rng rng(7);
  const ecg::Dist wide{100.0, 1000.0, 90.0, 110.0};
  for (int i = 0; i < 32; ++i) {
    const double v = wide.sample(rng);
    EXPECT_GE(v, 90.0);
    EXPECT_LE(v, 110.0);
  }
  util::Rng frozen_rng(7);
  const ecg::Dist frozen{100.0, 0.0, 0.0, 200.0};
  EXPECT_EQ(frozen.sample(frozen_rng), 100.0);
}

TEST(Cohort, PatientParamsArePureAndPerPatient) {
  const ecg::CohortParams cohort;
  const ecg::GeneratorParams base;
  const ecg::GeneratorParams a = ecg::patient_params(cohort, base, 17);
  const ecg::GeneratorParams b = ecg::patient_params(cohort, base, 17);
  EXPECT_EQ(a.heart_rate_bpm, b.heart_rate_bpm);
  EXPECT_EQ(a.noise_lsb, b.noise_lsb);
  EXPECT_EQ(a.seed, b.seed);

  const ecg::GeneratorParams c = ecg::patient_params(cohort, base, 18);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_NE(a.heart_rate_bpm, c.heart_rate_bpm);

  // Distributed fields land inside their clamps.
  EXPECT_GE(a.heart_rate_bpm, cohort.heart_rate_bpm.min);
  EXPECT_LE(a.heart_rate_bpm, cohort.heart_rate_bpm.max);
  EXPECT_GE(a.dropout_s, cohort.dropout_s.min);
  EXPECT_LE(a.dropout_s, cohort.dropout_s.max);
  // Non-distributed fields pass through from the base.
  EXPECT_EQ(a.sample_rate_hz, base.sample_rate_hz);
}

TEST(Cohort, FrozenAxisDoesNotShiftLaterDraws) {
  ecg::CohortParams frozen;
  frozen.heart_rate_bpm.stddev = 0.0;
  const ecg::GeneratorParams base;
  const ecg::GeneratorParams var =
      ecg::patient_params(ecg::CohortParams{}, base, 3);
  const ecg::GeneratorParams pin = ecg::patient_params(frozen, base, 3);
  EXPECT_EQ(pin.heart_rate_bpm, frozen.heart_rate_bpm.mean);
  // Every draw after the frozen axis is unchanged.
  EXPECT_EQ(pin.rr_jitter_fraction, var.rr_jitter_fraction);
  EXPECT_EQ(pin.noise_lsb, var.noise_lsb);
  EXPECT_EQ(pin.seed, var.seed);
}

TEST(Cohort, ArtifactAndDropoutPassesAreGatedAndDeterministic) {
  ecg::GeneratorParams params;
  params.artifact_rate_hz = 0.0;  // disabled: byte-identical to the
  params.dropout_rate_hz = 0.0;   // pre-artifact generator
  const auto plain = ecg::generate_channel(params, 0, 512);
  const auto again = ecg::generate_channel(params, 0, 512);
  EXPECT_EQ(plain, again);

  params.dropout_rate_hz = 2.0;  // frequent, so 512 samples surely hit one
  params.dropout_s = 0.2;
  const auto dropped = ecg::generate_channel(params, 0, 512);
  EXPECT_NE(plain, dropped);
  EXPECT_EQ(dropped, ecg::generate_channel(params, 0, 512));
  // Dropout forces flat zero intervals.
  unsigned zeros = 0;
  for (const std::int16_t s : dropped) zeros += s == 0;
  EXPECT_GT(zeros, 16u);

  params.dropout_rate_hz = 0.0;
  params.artifact_rate_hz = 2.0;
  params.artifact_lsb = 500.0;
  const auto bumped = ecg::generate_channel(params, 0, 512);
  EXPECT_NE(plain, bumped);
  EXPECT_EQ(bumped, ecg::generate_channel(params, 0, 512));
}

// --- matrix cohort axis -----------------------------------------------------

TEST(CohortMatrix, AxisExpandsDeterministically) {
  Matrix matrix;
  matrix.workloads({"sleepgen"});
  matrix.design(DesignVariant::synchronized());
  matrix.samples({256});
  ecg::CohortParams cohort;
  cohort.seed = 99;
  matrix.cohort(5, cohort);
  EXPECT_EQ(matrix.size(), 5u);

  const std::vector<RunSpec> specs = matrix.expand();
  ASSERT_EQ(specs.size(), 5u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(specs[i].cohort.has_value());
    EXPECT_EQ(specs[i].cohort->seed, 99u);
    EXPECT_EQ(specs[i].cohort->patient, i);
    EXPECT_EQ(specs[i].cohort->patients, 5u);
    // The patient's physiology is baked into the generator parameters.
    const ecg::GeneratorParams expect =
        ecg::patient_params(cohort, ecg::GeneratorParams{}, i);
    EXPECT_EQ(specs[i].params.generator.seed, expect.seed);
    EXPECT_EQ(specs[i].params.generator.heart_rate_bpm, expect.heart_rate_bpm);
  }
  // Patients differ; re-expansion is identical (the shardability contract).
  EXPECT_NE(specs[0].params.generator.seed, specs[1].params.generator.seed);
  const std::vector<RunSpec> again = matrix.expand();
  EXPECT_EQ(spec_fingerprint(specs), spec_fingerprint(again));
}

TEST(CohortMatrix, GroupKeySharesCohortSeparatesConfigs) {
  const std::vector<RunSpec> specs = cohort_specs("sleepgen", 3);
  // Patients differ only in generator-derived input data: one lane group,
  // but each patient simulates its own prefix.
  EXPECT_EQ(batch_group_key(specs[0]), batch_group_key(specs[1]));
  EXPECT_EQ(batch_group_key(specs[0]), batch_group_key(specs[2]));
  EXPECT_NE(warm_group_key(specs[0]), warm_group_key(specs[1]));

  using Edit = std::function<void(RunSpec&)>;
  const RunSpec& base = specs[0];
  const auto edited = [&base](const Edit& edit) {
    RunSpec spec = base;
    edit(spec);
    return spec;
  };

  // Both keys ignore the energy request and the host-side plumbing.
  for (const Edit& edit : std::vector<Edit>{
           [](RunSpec& s) {
             s.energy = EnergyRequest{EnergyRequest::Params::kBaseline, 25.0,
                                      0.9};
           },
           [](RunSpec& s) { s.cohort.reset(); },
           [](RunSpec& s) { s.record_events_to = "elsewhere.evt"; }}) {
    const RunSpec other = edited(edit);
    EXPECT_EQ(batch_group_key(base), batch_group_key(other));
    EXPECT_EQ(warm_group_key(base), warm_group_key(other));
  }
  // The warm key ignores the budget (a fan-out shares one run), the batch
  // key keeps it (lanes must hit budget stops together).
  RunSpec other = edited([](RunSpec& s) { s.max_cycles /= 2; });
  EXPECT_NE(batch_group_key(base), batch_group_key(other));
  EXPECT_EQ(warm_group_key(base), warm_group_key(other));

  // Neither key ignores what shapes the simulation.
  for (const Edit& edit : std::vector<Edit>{
           [](RunSpec& s) { s.design = DesignVariant::baseline(); },
           [](RunSpec& s) { s.params.samples += 128; },
           [](RunSpec& s) {
             s.arbitration = sim::ArbitrationPolicy::kRoundRobin;
           },
           [](RunSpec& s) { s.fast_forward = false; }}) {
    other = edited(edit);
    EXPECT_NE(batch_group_key(base), batch_group_key(other));
    EXPECT_NE(warm_group_key(base), warm_group_key(other));
  }
}

// --- lane-group primitives --------------------------------------------------

TEST(LaneGroup, RwDisjointCatchesCrossCoreOverlap) {
  using sim::batch::TraceEvent;
  sim::batch::WindowTraces traces(2);
  traces[0] = {{0, 100}, {1, 200 | TraceEvent::kWriteBit}};
  traces[1] = {{0, 101}, {1, 201 | TraceEvent::kWriteBit}};
  EXPECT_TRUE(sim::batch::check_rw_disjoint(traces).empty());

  // Two cores reading one word is fine...
  traces[1].push_back({2, 100});
  EXPECT_TRUE(sim::batch::check_rw_disjoint(traces).empty());
  // ...but a write to a word another core touches is not.
  traces[1].push_back({3, 100 | TraceEvent::kWriteBit});
  EXPECT_FALSE(sim::batch::check_rw_disjoint(traces).empty());
}

TEST(LaneGroup, DepositAndRollbackRestoreTheBoundary) {
  sim::batch::LaneGroup group(2, 1, 64);
  group.begin_window(0);
  // One-word blocks; the overlapping ones unwind in reverse.
  const std::uint16_t words[] = {111, 222, 333};
  group.deposit_block(0, 5, {&words[0], 1});
  group.deposit_block(0, 5, {&words[1], 1});
  group.deposit_block(0, 6, {&words[2], 1});
  EXPECT_EQ(group.dm(0)[5], 222);
  EXPECT_EQ(group.dm(0)[6], 333);
  group.rollback(0);
  EXPECT_EQ(group.dm(0)[5], 0);
  EXPECT_EQ(group.dm(0)[6], 0);
  // Lane 1 was never touched.
  EXPECT_EQ(group.dm(1)[5], 0);
}

// --- batch ≡ scalar ---------------------------------------------------------

TEST(BatchEngine, SleepgenCohortIsByteIdenticalToScalar) {
  const std::vector<RunSpec> specs = cohort_specs("sleepgen", 6);
  const BatchEngine batch(Registry::builtins());
  const BatchResult result = batch.run(specs);
  expect_scalar_bytes(result.records, specs);
  // sleepgen's kernel is straight-line per sample: every lane must ride the
  // batch to the end.
  EXPECT_EQ(result.stats.batched_runs, specs.size());
  EXPECT_EQ(result.stats.scalar_runs, 0u);
  EXPECT_EQ(result.stats.groups, 1u);
  EXPECT_GT(result.stats.emulated_instructions, 0u);
  for (const RunRecord& record : result.records) {
    EXPECT_TRUE(record.ok()) << record.verify_error;
  }
}

TEST(BatchEngine, UniformStreamingCohortIsByteIdenticalToScalar) {
  const std::vector<RunSpec> specs = cohort_specs("streaming.uniform", 6);
  const BatchEngine batch(Registry::builtins());
  const BatchResult result = batch.run(specs);
  expect_scalar_bytes(result.records, specs);
  // The branchless monitor retires the same trace on every input.
  EXPECT_EQ(result.stats.batched_runs, specs.size());
  EXPECT_EQ(result.stats.diverged_lanes, 0u);
}

TEST(BatchEngine, ClassicStreamingFallsBackHonestlyAndByteIdentically) {
  // The classic monitor's refractory scan is data-dependent: patient lanes
  // diverge from the leader's trace and must fall back to scalar platforms
  // — with records still byte-identical to the scalar engine's. (Baseline
  // design: the synchronized variant instruments the scan with sinc/sdec,
  // which makes the whole sweep batch-ineligible before any lane can
  // diverge — that routing is covered by MixedSweepRoutesIneligibleSpecs.)
  const std::vector<RunSpec> specs = cohort_specs(
      "streaming", 4, 4, /*samples=*/250, DesignVariant::baseline());
  const BatchEngine batch(Registry::builtins());
  const BatchResult result = batch.run(specs);
  expect_scalar_bytes(result.records, specs);
  EXPECT_GT(result.stats.diverged_lanes + result.stats.group_bails, 0u);
  for (const RunRecord& record : result.records) {
    EXPECT_TRUE(record.ok()) << record.verify_error;
  }
}

TEST(BatchEngine, MixedSweepRoutesIneligibleSpecsThroughScalarEngine) {
  // A sweep mixing batchable cohort runs with workloads that have no
  // windowed drive (mrpfltr) and a synchronizer-instrumented program
  // (sqrt32 with sync hardware): everything lands byte-identical, the
  // ineligible specs via the scalar engine.
  std::vector<RunSpec> specs = cohort_specs("sleepgen", 3);
  RunSpec mrp;
  mrp.workload = "mrpfltr";
  mrp.params.samples = 32;
  specs.insert(specs.begin() + 1, mrp);  // interleaved, not appended
  RunSpec sq;
  sq.workload = "sqrt32";
  sq.params.samples = 32;
  specs.push_back(sq);

  const BatchEngine batch(Registry::builtins());
  const BatchResult result = batch.run(specs);
  expect_scalar_bytes(result.records, specs);
  EXPECT_EQ(result.stats.batched_runs, 3u);
  EXPECT_EQ(result.stats.scalar_runs, 2u);
}

TEST(BatchEngine, UnknownWorkloadYieldsErrorRecordLikeScalar) {
  std::vector<RunSpec> specs = cohort_specs("sleepgen", 2);
  RunSpec bogus;
  bogus.workload = "no-such-workload";
  specs.push_back(bogus);
  const BatchEngine batch(Registry::builtins());
  const BatchResult result = batch.run(specs);
  EXPECT_EQ(to_csv(result.records), scalar_csv(specs));
  EXPECT_EQ(result.records.back().status, "error");
}

TEST(BatchEngine, ParallelJobsAreDeterministic) {
  // Two cohorts (different core counts) plus ineligible specs: several
  // tasks racing over the worker pool, records index-aligned regardless.
  std::vector<RunSpec> specs = cohort_specs("sleepgen", 4, 2);
  const std::vector<RunSpec> wide = cohort_specs("sleepgen", 3, 4);
  specs.insert(specs.end(), wide.begin(), wide.end());
  RunSpec mrp;
  mrp.workload = "mrpfltr";
  mrp.params.samples = 32;
  specs.push_back(mrp);

  const BatchEngine serial(Registry::builtins(), {.jobs = 1});
  const BatchEngine parallel(Registry::builtins(), {.jobs = 4});
  const BatchResult a = serial.run(specs);
  const BatchResult b = parallel.run(specs);
  EXPECT_EQ(to_csv(a.records), to_csv(b.records));
  EXPECT_EQ(a.stats.batched_runs, b.stats.batched_runs);
  EXPECT_EQ(a.stats.scalar_runs, b.stats.scalar_runs);
}

// --- per-instance state: counters and final snapshots -----------------------

TEST(BatchEngine, PerInstanceCountersAndSnapshotsMatchScalarPlatforms) {
  const std::vector<RunSpec> specs = cohort_specs("sleepgen", 4);
  BatchOptions options;
  options.keep_final_snapshots = true;
  const BatchEngine batch(Registry::builtins(), options);
  const BatchResult result = batch.run(specs);
  ASSERT_EQ(result.final_snapshots.size(), specs.size());

  const Engine engine(Registry::builtins());
  const std::vector<RunRecord> scalar = engine.run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Counters per instance...
    EXPECT_EQ(result.records[i].counters, scalar[i].counters) << "spec " << i;
    EXPECT_EQ(result.records[i].sync_stats, scalar[i].sync_stats);
    EXPECT_EQ(result.records[i].lockstep_fraction,
              scalar[i].lockstep_fraction);
    // ...and the full final platform state, byte for byte.
    ASSERT_TRUE(result.final_snapshots[i].has_value()) << "spec " << i;
    const sim::Snapshot reference = scalar_final_snapshot(specs[i]);
    EXPECT_TRUE(sim::snapshots_equal(*result.final_snapshots[i], reference,
                                     sim::DivergenceScope::kFullState))
        << "spec " << i << ":\n"
        << sim::diff_snapshots(*result.final_snapshots[i], reference);
    EXPECT_EQ(result.final_snapshots[i]->serialize(), reference.serialize());
  }
}

TEST(BatchEngine, FallbackLaneSnapshotsAlsoMatchScalar) {
  const std::vector<RunSpec> specs = cohort_specs(
      "streaming", 3, 4, /*samples=*/250, DesignVariant::baseline());
  BatchOptions options;
  options.keep_final_snapshots = true;
  const BatchEngine batch(Registry::builtins(), options);
  const BatchResult result = batch.run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!result.final_snapshots[i].has_value()) continue;  // scalar-engine path
    const sim::Snapshot reference = scalar_final_snapshot(specs[i]);
    EXPECT_TRUE(sim::snapshots_equal(*result.final_snapshots[i], reference,
                                     sim::DivergenceScope::kFullState))
        << "spec " << i << ":\n"
        << sim::diff_snapshots(*result.final_snapshots[i], reference);
  }
}

// --- sharded execution over the same cohort ---------------------------------

TEST(BatchEngine, ShardedCohortMergeMatchesBatchAndScalar) {
  const std::vector<RunSpec> specs = cohort_specs("sleepgen", 6);
  const std::string reference = scalar_csv(specs);

  const BatchEngine batch(Registry::builtins());
  EXPECT_EQ(to_csv(batch.run(specs).records), reference);

  const std::string dir = scratch_dir("sharded_cohort");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&dir, w] {
      (void)work_spool(dir, Registry::builtins(),
                       {.worker_id = "w" + std::to_string(w)});
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(merge_spool(dir), reference);
}

}  // namespace
}  // namespace ulpsync::scenario
