// Recorded event-schedule replay: differential record -> replay suites.
//
// The contract under test (sim/event_schedule.h + scenario/replay.h):
// recording a run's external-event schedule and replaying it into a
// freshly prepared platform reproduces the original bit-exactly — final
// snapshot bytes, counters, trace timelines, VCD output, and the
// engine-level CSV row — for every builtin workload, through the scalar
// engine, the batched engine, and the sharded work-spool path, serial and
// parallel. Golden `.evt` envelopes committed under tests/golden/
// additionally pin the wire format and the recorded schedules of selected
// workloads (regenerate with `snapshot_tool record`, see
// tests/golden/README.md). On top of exact replay, the fault-injection
// suite asserts the divergence bisector, `find_first_divergence`,
// localizes DM bit flips, IM bit flips, and delayed/dropped wake-ups to
// their first architectural effect, at any checkpoint stride.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "scenario/batch.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/shard.h"
#include "sim/event_schedule.h"
#include "sim/snapshot.h"
#include "sim/trace.h"
#include "sim/vcd.h"
#include "util/rng.h"
#include "util/wire.h"

namespace ulpsync {
namespace {

namespace fs = std::filesystem;

using scenario::BatchEngine;
using scenario::BatchOptions;
using scenario::DesignVariant;
using scenario::Engine;
using scenario::EngineOptions;
using scenario::RecordedRun;
using scenario::RecordOutcome;
using scenario::Registry;
using scenario::ReplayReport;
using scenario::ReplayRig;
using scenario::RunRecord;
using scenario::RunSpec;

constexpr unsigned kGoldenSamples = 48;

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/replay_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A bounded spec for `name` on its natural design: the synchronized
/// design up to the synchronizer's 8-core ceiling, crossbar-only above it.
RunSpec spec_for(const std::string& name, unsigned samples) {
  RunSpec spec;
  spec.workload = name;
  spec.params.samples = samples;
  spec.max_cycles = 3'000'000;
  const auto workload = Registry::builtins().make(name, spec.params);
  spec.design = workload->num_cores() <= 8 ? DesignVariant::synchronized()
                                           : DesignVariant::xbar_only();
  return spec;
}

std::vector<std::string> builtin_names() {
  return Registry::builtins().names();
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (auto& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

/// Drives `workload` on `platform` (program loaded, inputs not) under an
/// attached recorder, the way `record_one` records, and returns the
/// sealed schedule.
sim::EventSchedule record_drive(sim::Platform& platform,
                                const scenario::Workload& workload,
                                const RunSpec& spec) {
  sim::EventRecorder recorder;
  recorder.attach(platform);
  workload.load_inputs(platform);
  const sim::RunResult result = workload.drive(platform, spec.max_cycles);
  std::vector<std::uint64_t> host_words;
  if (const scenario::WindowedDrive* windowed = workload.windowed_drive())
    host_words = windowed->host_words();
  return recorder.finish(result, host_words);
}

// --- record -> replay differential, every builtin ---------------------------

class ReplayDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayDifferential, CsvRowAndFinalStateReplayBitIdentical) {
  const RunSpec spec = spec_for(GetParam(), 32);
  const RecordOutcome outcome =
      scenario::record_one(spec, Registry::builtins());
  ASSERT_TRUE(outcome.record.ok()) << outcome.record.verify_error;

  const ReplayReport report =
      scenario::replay_recorded_run(outcome.recorded, Registry::builtins());
  EXPECT_TRUE(report.bit_identical) << GetParam() << ": " << report.error;
  EXPECT_EQ(report.csv_row, outcome.recorded.csv_row) << GetParam();
}

TEST_P(ReplayDifferential, FinalSnapshotBytesAndCountersReplayBitIdentical) {
  const RunSpec spec = spec_for(GetParam(), 32);
  const auto workload =
      Registry::builtins().make(spec.workload, spec.params);

  // Original run, recorded.
  sim::Platform original(scenario::resolved_config(spec, *workload));
  original.load_program(workload->program(spec.with_synchronizer()));
  const sim::EventSchedule schedule = record_drive(original, *workload, spec);
  const sim::Snapshot original_final = original.save_snapshot();

  // Replay into a fresh platform; no inputs loaded — the schedule carries
  // them.
  sim::Platform replayed(scenario::resolved_config(spec, *workload));
  replayed.load_program(workload->program(spec.with_synchronizer()));
  const sim::ReplayOutcome outcome = sim::replay_schedule(replayed, schedule);
  ASSERT_TRUE(outcome.ok()) << GetParam() << ": " << outcome.error;
  EXPECT_EQ(outcome.result, schedule.final_result) << GetParam();

  const sim::Snapshot replayed_final = replayed.save_snapshot();
  EXPECT_EQ(replayed_final.counters, original_final.counters) << GetParam();
  EXPECT_EQ(replayed_final.serialize(), original_final.serialize())
      << GetParam() << ": "
      << sim::diff_snapshots(original_final, replayed_final);
}

TEST_P(ReplayDifferential, CleanCursorServesTheDrivesFastPaths) {
  // Campaign trials step through ReplayCursor, so it must run the region
  // executor wherever the recording drive did: the cycles each fast path
  // served match exactly.
  const RunSpec spec = spec_for(GetParam(), 64);
  const auto workload =
      Registry::builtins().make(spec.workload, spec.params);
  sim::Platform original(scenario::resolved_config(spec, *workload));
  original.load_program(workload->program(spec.with_synchronizer()));
  const sim::EventSchedule schedule = record_drive(original, *workload, spec);

  sim::Platform replayed(scenario::resolved_config(spec, *workload));
  replayed.load_program(workload->program(spec.with_synchronizer()));
  sim::ReplayCursor cursor(replayed, schedule, {});
  cursor.advance_to(schedule.final_result.cycles);
  EXPECT_GT(original.fetch_region_cycles() + original.burst_cycles() +
                original.fast_forwarded_cycles(),
            0u)
      << GetParam();
  EXPECT_EQ(replayed.fetch_region_cycles(), original.fetch_region_cycles())
      << GetParam();
  EXPECT_EQ(replayed.burst_cycles(), original.burst_cycles()) << GetParam();
  EXPECT_EQ(replayed.fast_forwarded_cycles(), original.fast_forwarded_cycles())
      << GetParam();
}

TEST_P(ReplayDifferential, TraceAndVcdOfReplayMatchOriginal) {
  const RunSpec spec = spec_for(GetParam(), 24);
  const auto workload =
      Registry::builtins().make(spec.workload, spec.params);

  // One leg = (timeline text, VCD bytes) of a fully observed run. The
  // original leg records while observed; the replay leg re-delivers the
  // recorded schedule under the same observer. The recorded hash is
  // observer-invariant (normalized_state_hash), so replay still verifies.
  sim::EventSchedule schedule;
  auto run_leg = [&](bool replay) {
    sim::Platform platform(scenario::resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    std::ostringstream vcd_out;
    sim::VcdWriter vcd(vcd_out);
    vcd.attach(platform);  // VCD samples through the platform observer
    if (replay) {
      const sim::ReplayOutcome outcome =
          sim::replay_schedule(platform, schedule);
      EXPECT_TRUE(outcome.ok()) << GetParam() << ": " << outcome.error;
    } else {
      schedule = record_drive(platform, *workload, spec);
    }
    vcd.finish();
    return vcd_out.str();
  };
  const std::string vcd_original = run_leg(/*replay=*/false);
  const std::string vcd_replayed = run_leg(/*replay=*/true);
  EXPECT_EQ(vcd_replayed, vcd_original) << GetParam();

  // Trace leg: same schedule, timeline tracer on both sides.
  auto trace_leg = [&](bool replay) {
    sim::Platform platform(scenario::resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    sim::TimelineTracer tracer;
    tracer.attach(platform);
    if (replay) {
      const sim::ReplayOutcome outcome =
          sim::replay_schedule(platform, schedule);
      EXPECT_TRUE(outcome.ok()) << GetParam() << ": " << outcome.error;
    } else {
      workload->load_inputs(platform);
      (void)workload->drive(platform, spec.max_cycles);
    }
    return tracer.timeline(800);
  };
  EXPECT_EQ(trace_leg(/*replay=*/true), trace_leg(/*replay=*/false))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Builtins, ReplayDifferential,
                         ::testing::ValuesIn(builtin_names()), param_name);

// --- engine, batch, and shard recording paths -------------------------------

TEST(EngineRecording, RecordPathWritesEnvelopeAndKeepsRecordBitIdentical) {
  const std::string dir = scratch_dir("engine_record");
  RunSpec spec = spec_for("mrpfltr", 32);

  // Reference: the same spec without recording.
  const Engine engine(Registry::builtins());
  const RunRecord plain = engine.run_one(spec);
  ASSERT_TRUE(plain.ok()) << plain.verify_error;

  spec.record_events_to = dir + "/run.evt";
  const RunRecord recorded = engine.run_one(spec);
  ASSERT_TRUE(recorded.ok()) << recorded.verify_error;

  // Recording must not change the record (modulo the path field itself,
  // which is host plumbing and not serialized into the CSV).
  EXPECT_EQ(scenario::to_csv_row(recorded), scenario::to_csv_row(plain));

  const RecordedRun envelope =
      scenario::read_recorded_run_file(spec.record_events_to);
  EXPECT_EQ(envelope.csv_row, scenario::to_csv_row(plain));
  const ReplayReport report =
      scenario::replay_recorded_run(envelope, Registry::builtins());
  EXPECT_TRUE(report.bit_identical) << report.error;
}

TEST(EngineRecording, SerialAndParallelRecordingAreByteIdentical) {
  const std::string serial_dir = scratch_dir("record_serial");
  const std::string parallel_dir = scratch_dir("record_parallel");

  auto specs_into = [](const std::string& dir) {
    std::vector<RunSpec> specs;
    for (const char* name : {"mrpfltr", "sqrt32", "clip8", "streaming"}) {
      RunSpec spec = spec_for(name, 32);
      spec.record_events_to =
          dir + "/run-" + std::to_string(specs.size()) + ".evt";
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  EngineOptions serial_options;
  serial_options.jobs = 1;
  const Engine serial(Registry::builtins(), serial_options);
  const std::string serial_csv = scenario::to_csv(serial.run(specs_into(serial_dir)));

  EngineOptions parallel_options;
  parallel_options.jobs = 4;
  const Engine parallel(Registry::builtins(), parallel_options);
  const std::string parallel_csv =
      scenario::to_csv(parallel.run(specs_into(parallel_dir)));

  EXPECT_EQ(parallel_csv, serial_csv);
  for (int i = 0; i < 4; ++i) {
    const std::string name = "/run-" + std::to_string(i) + ".evt";
    const auto a = scenario::read_recorded_run_file(serial_dir + name);
    const auto b = scenario::read_recorded_run_file(parallel_dir + name);
    EXPECT_EQ(b.serialize(), a.serialize()) << name;
  }
}

TEST(EngineRecording, BatchEngineFallsBackToScalarRecordingBitIdentically) {
  const std::string dir = scratch_dir("batch_record");

  // streaming is batch-eligible (windowed drive); a recording spec must
  // take the scalar fallback and still produce identical rows + envelope.
  std::vector<RunSpec> specs;
  for (const char* name : {"streaming", "streaming.uniform"}) {
    RunSpec spec = spec_for(name, 32);
    spec.record_events_to =
        dir + "/run-" + std::to_string(specs.size()) + ".evt";
    specs.push_back(std::move(spec));
  }

  BatchOptions options;
  options.jobs = 2;
  const BatchEngine batch(Registry::builtins(), options);
  const scenario::BatchResult result = batch.run(specs);
  EXPECT_EQ(result.stats.batched_runs, 0u)
      << "recording specs must not enter batch lanes";

  std::vector<RunSpec> plain = specs;
  for (RunSpec& spec : plain) spec.record_events_to.clear();
  const Engine engine(Registry::builtins());
  EXPECT_EQ(scenario::to_csv(result.records),
            scenario::to_csv(engine.run(plain)));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto envelope =
        scenario::read_recorded_run_file(specs[i].record_events_to);
    const ReplayReport report =
        scenario::replay_recorded_run(envelope, Registry::builtins());
    EXPECT_TRUE(report.bit_identical) << specs[i].workload << ": "
                                      << report.error;
  }
}

TEST(ShardRecording, WorkSpoolRecordDirRecordsEveryRunReplayably) {
  const std::string spool = scratch_dir("spool");
  const std::string evt_dir = scratch_dir("spool_evt");

  std::vector<RunSpec> specs;
  for (const char* name : {"mrpfltr", "sqrt32", "streaming", "sleepgen"}) {
    specs.push_back(spec_for(name, 32));
  }
  scenario::SpoolOptions plan_options;
  plan_options.shards = 2;
  (void)scenario::plan_spool(spool, specs, Registry::builtins(), plan_options);

  scenario::WorkOptions work_options;
  work_options.record_dir = evt_dir;
  const scenario::WorkReport report =
      scenario::work_spool(spool, Registry::builtins(), work_options);
  EXPECT_EQ(report.runs_executed, specs.size());

  const std::string merged = scenario::merge_spool(spool);
  const Engine engine(Registry::builtins());
  EXPECT_EQ(merged, scenario::to_csv(engine.run(specs)));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = evt_dir + "/run-" + std::to_string(i) + ".evt";
    ASSERT_TRUE(fs::exists(path)) << path;
    const RecordedRun envelope = scenario::read_recorded_run_file(path);
    EXPECT_EQ(envelope.spec.workload, specs[i].workload) << i;
    const ReplayReport replay =
        scenario::replay_recorded_run(envelope, Registry::builtins());
    EXPECT_TRUE(replay.bit_identical) << specs[i].workload << ": "
                                      << replay.error;
    // The merged CSV's row for this run is exactly the recorded row.
    EXPECT_NE(merged.find(envelope.csv_row), std::string::npos)
        << specs[i].workload;
  }
}

// --- golden schedules --------------------------------------------------------

std::map<std::string, std::uint64_t> load_golden_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  std::ifstream file(std::string(ULPSYNC_GOLDEN_DIR) + "/hashes.txt");
  EXPECT_TRUE(file.is_open()) << "missing tests/golden/hashes.txt";
  std::string hash_hex, filename;
  while (file >> hash_hex >> filename) {
    const std::size_t slash = filename.find_last_of('/');
    if (slash != std::string::npos) filename = filename.substr(slash + 1);
    hashes[filename] = std::stoull(hash_hex, nullptr, 16);
  }
  return hashes;
}

const char* const kGoldenSchedules[] = {"mrpfltr", "sqrt32", "streaming",
                                        "sleepgen"};

std::string golden_param_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (auto& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

class GoldenSchedules : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSchedules, CommittedEnvelopeAndHashAreStable) {
  const std::string name = GetParam();
  const std::string path =
      std::string(ULPSYNC_GOLDEN_DIR) + "/" + name + ".evt";

  // A freshly recorded envelope must byte-match the committed one (and
  // therefore its committed content hash): the wire format, the event
  // stream, and the recorded outcome are all pinned.
  const RunSpec spec = spec_for(name, kGoldenSamples);
  const RecordOutcome outcome =
      scenario::record_one(spec, Registry::builtins());
  ASSERT_TRUE(outcome.record.ok()) << outcome.record.verify_error;

  const RecordedRun committed = scenario::read_recorded_run_file(path);
  EXPECT_EQ(outcome.recorded.serialize(), committed.serialize())
      << name << " drifted from its golden schedule; if the change is "
      << "intentional, regenerate with: snapshot_tool record " << name
      << " --samples 48 (see tests/golden/README.md)";

  const auto hashes = load_golden_hashes();
  const auto entry = hashes.find(name + ".evt");
  ASSERT_NE(entry, hashes.end()) << "no hash recorded for " << name;
  EXPECT_EQ(committed.content_hash(), entry->second) << name;
}

TEST_P(GoldenSchedules, CommittedEnvelopeReplaysBitIdentical) {
  const RecordedRun committed = scenario::read_recorded_run_file(
      std::string(ULPSYNC_GOLDEN_DIR) + "/" + GetParam() + ".evt");
  const ReplayReport report =
      scenario::replay_recorded_run(committed, Registry::builtins());
  EXPECT_TRUE(report.bit_identical) << GetParam() << ": " << report.error;
}

INSTANTIATE_TEST_SUITE_P(Builtins, GoldenSchedules,
                         ::testing::ValuesIn(kGoldenSchedules),
                         golden_param_name);

// --- fault injection + bisection localization -------------------------------

/// A recorded sleepgen run: duty-cycled, so its schedule has DM deposits
/// *and* wake-up interrupts — every fault class has targets.
const RecordedRun& sleepgen_recording() {
  static const RecordedRun run = [] {
    const RunSpec spec = spec_for("sleepgen", 24);
    RecordOutcome outcome = scenario::record_one(spec, Registry::builtins());
    EXPECT_TRUE(outcome.record.ok()) << outcome.record.verify_error;
    return std::move(outcome.recorded);
  }();
  return run;
}

TEST(FaultBisection, CleanReplayPairNeverDiverges) {
  const RecordedRun& run = sleepgen_recording();
  ReplayRig a = scenario::make_replay_rig(run, Registry::builtins());
  ReplayRig b = scenario::make_replay_rig(run, Registry::builtins());
  sim::ReplayCursor cursor_a(*a.platform, run.schedule, {});
  sim::ReplayCursor cursor_b(*b.platform, run.schedule, {});
  const sim::DivergenceReport divergence = sim::find_first_divergence(
      cursor_a, cursor_b, run.schedule.final_result.cycles);
  EXPECT_FALSE(divergence.diverged) << divergence.delta;
  // Both cursors reproduce the recorded final state.
  EXPECT_EQ(sim::normalized_state_hash(a.platform->save_snapshot()),
            run.schedule.final_state_hash);
}

/// Bisects a clean replay of `run` against one under `faults`, in core
/// scope, at strides 1, 7, 64 and 4096. Every stride must report exactly
/// what stride 1, a checkpoint every cycle, reports; returns that report.
sim::DivergenceReport bisect_at_every_stride(
    const RecordedRun& run, const std::vector<sim::FaultAction>& faults) {
  std::optional<sim::DivergenceReport> reference;
  for (const std::uint64_t stride : {1u, 7u, 64u, 4096u}) {
    ReplayRig clean = scenario::make_replay_rig(run, Registry::builtins());
    ReplayRig faulty = scenario::make_replay_rig(run, Registry::builtins());
    sim::ReplayCursor clean_cursor(*clean.platform, run.schedule, {});
    sim::ReplayCursor faulty_cursor(*faulty.platform, run.schedule, faults);
    sim::DivergenceReport report = sim::find_first_divergence(
        clean_cursor, faulty_cursor, run.schedule.final_result.cycles,
        sim::DivergenceScope::kCoreState, stride);
    if (!reference) {
      reference = std::move(report);
      continue;
    }
    EXPECT_EQ(report.diverged, reference->diverged) << "stride " << stride;
    EXPECT_EQ(report.first_divergent_cycle, reference->first_divergent_cycle)
        << "stride " << stride;
    EXPECT_EQ(report.delta, reference->delta) << "stride " << stride;
  }
  return std::move(*reference);
}

TEST(FaultBisection, DmBitFlipLocalizesToFirstConsumingCycle) {
  const RecordedRun& run = sleepgen_recording();
  // Corrupt the first recorded input deposit right at its deposit cycle:
  // the workload reads what the host wrote, so the flip must reach core
  // state.
  const sim::ExternalEvent* deposit = nullptr;
  for (const sim::ExternalEvent& event : run.schedule.events) {
    if (event.kind == sim::EventKind::kDmWrite ||
        event.kind == sim::EventKind::kDmWriteBlock) {
      deposit = &event;
      break;
    }
  }
  ASSERT_NE(deposit, nullptr) << "sleepgen schedule has no DM deposits";

  sim::FaultAction fault;
  fault.kind = sim::FaultAction::Kind::kDmFlip;
  fault.cycle = deposit->cycle;
  fault.addr = deposit->addr;
  fault.bit = 0;
  const sim::DivergenceReport divergence =
      bisect_at_every_stride(run, {fault});
  ASSERT_TRUE(divergence.diverged)
      << "DM flip at cycle " << fault.cycle << " addr " << fault.addr
      << " never reached core state";
  // kCoreState ignores DM, so the divergence is the first *consumption* of
  // the corrupted word — strictly after the injection.
  EXPECT_GT(divergence.first_divergent_cycle, fault.cycle);
  EXPECT_FALSE(divergence.delta.empty());
}

TEST(FaultBisection, ImBitFlipLocalizesOrRejectsAsUndecodable) {
  const RecordedRun& run = sleepgen_recording();
  const auto workload =
      Registry::builtins().make(run.spec.workload, run.spec.params);
  const assembler::Program& program =
      workload->program(run.spec.with_synchronizer());
  ASSERT_FALSE(program.image.empty());

  // Scan deterministically for a flip that both loads and diverges; count
  // undecodable flips as the expected other outcome. The scan is bounded —
  // the first decodable corruption of early instructions diverges almost
  // immediately in practice.
  bool localized = false;
  unsigned undecodable = 0;
  const std::size_t scan_words = std::min<std::size_t>(program.image.size(), 16);
  for (std::size_t word = 0; word < scan_words && !localized; ++word) {
    for (unsigned bit = 0; bit < 32 && !localized; ++bit) {
      std::vector<std::uint32_t> corrupted = program.image;
      corrupted[word] ^= std::uint32_t{1} << bit;

      ReplayRig faulty;
      faulty.workload = workload;
      faulty.platform = std::make_unique<sim::Platform>(
          scenario::resolved_config(run.spec, *workload));
      try {
        faulty.platform->load_image(program.origin, corrupted);
      } catch (const std::invalid_argument&) {
        ++undecodable;
        continue;
      }
      ReplayRig clean = scenario::make_replay_rig(run, Registry::builtins());
      sim::ReplayCursor clean_cursor(*clean.platform, run.schedule, {});
      sim::ReplayCursor faulty_cursor(*faulty.platform, run.schedule, {});
      const sim::DivergenceReport divergence = sim::find_first_divergence(
          clean_cursor, faulty_cursor,
          std::min<std::uint64_t>(run.schedule.final_result.cycles, 50'000),
          sim::DivergenceScope::kCoreState, /*stride=*/512);
      if (divergence.diverged) {
        localized = true;
        EXPECT_FALSE(divergence.delta.empty());
      }
    }
  }
  EXPECT_TRUE(localized) << "no decodable IM flip diverged ("
                         << undecodable << " undecodable flips scanned)";
}

bool is_wake(const sim::ExternalEvent& event) {
  return event.kind == sim::EventKind::kInterrupt ||
         event.kind == sim::EventKind::kInterruptAll;
}

/// First recorded wake-up event of the sleepgen schedule, with a concrete
/// target core for the fault.
std::pair<std::size_t, unsigned> first_wake_event(const RecordedRun& run) {
  for (std::size_t i = 0; i < run.schedule.events.size(); ++i) {
    const sim::ExternalEvent& event = run.schedule.events[i];
    if (event.kind == sim::EventKind::kInterrupt)
      return {i, static_cast<unsigned>(event.core)};
    if (event.kind == sim::EventKind::kInterruptAll) return {i, 0u};
  }
  return {run.schedule.events.size(), 0u};
}

TEST(FaultBisection, DelayedWakeupLocalizesAtTheMissedWake) {
  const RecordedRun& run = sleepgen_recording();
  const auto [index, core] = first_wake_event(run);
  ASSERT_LT(index, run.schedule.events.size())
      << "sleepgen schedule has no wake-up interrupts";

  sim::FaultAction fault;
  fault.kind = sim::FaultAction::Kind::kDelayWake;
  fault.event_index = index;
  fault.core = core;
  fault.delay = 300;
  const sim::DivergenceReport divergence =
      bisect_at_every_stride(run, {fault});
  ASSERT_TRUE(divergence.diverged);
  const std::uint64_t wake_cycle = run.schedule.events[index].cycle;
  // The faulted core misses its wake-up at the recorded cycle; the first
  // core-state difference appears right after it (and certainly before the
  // delayed delivery).
  EXPECT_GT(divergence.first_divergent_cycle, wake_cycle);
  EXPECT_LE(divergence.first_divergent_cycle, wake_cycle + fault.delay);
}

TEST(FaultBisection, DroppedWakeupLocalizesAndNeverRecovers) {
  const RecordedRun& run = sleepgen_recording();
  const auto [index, core] = first_wake_event(run);
  ASSERT_LT(index, run.schedule.events.size());

  sim::FaultAction fault;
  fault.kind = sim::FaultAction::Kind::kDropWake;
  fault.event_index = index;
  fault.core = core;
  const std::vector<sim::FaultAction> faults{fault};

  ReplayRig clean = scenario::make_replay_rig(run, Registry::builtins());
  ReplayRig faulty = scenario::make_replay_rig(run, Registry::builtins());
  sim::ReplayCursor clean_cursor(*clean.platform, run.schedule, {});
  sim::ReplayCursor faulty_cursor(*faulty.platform, run.schedule, faults);
  const sim::DivergenceReport divergence = sim::find_first_divergence(
      clean_cursor, faulty_cursor, run.schedule.final_result.cycles,
      sim::DivergenceScope::kCoreState, /*stride=*/256);
  ASSERT_TRUE(divergence.diverged);
  EXPECT_GT(divergence.first_divergent_cycle,
            run.schedule.events[index].cycle);
  // The dropped wake-up's core sleeps in the faulty replay while the clean
  // one runs: the divergent pair must show a core-status difference.
  bool status_differs = false;
  for (std::size_t c = 0; c < divergence.clean_state.cores.size(); ++c) {
    if (divergence.clean_state.cores[c].status !=
        divergence.faulty_state.cores[c].status) {
      status_differs = true;
      break;
    }
  }
  EXPECT_TRUE(status_differs) << divergence.delta;
}

// --- slice stepping against per-cycle stepping -------------------------------

/// Final snapshot of a replay of `run` under `faults`. By default
/// the cursor reaches the recorded end in one `advance_to`: `run()` slices
/// through the region executor. The per-cycle reference turns the fast
/// paths off (`RunSpec::fast_forward`) and advances one cycle per call. A
/// non-empty `image` replaces the loaded program (an IM-corrupted rig).
sim::Snapshot stepped_final_state(
    RecordedRun run, const std::vector<sim::FaultAction>& faults,
    bool per_cycle, const std::vector<std::uint32_t>& image = {}) {
  if (per_cycle) run.spec.fast_forward = false;
  ReplayRig rig = scenario::make_replay_rig(run, Registry::builtins());
  if (!image.empty()) {
    rig.platform->load_image(
        rig.workload->program(run.spec.with_synchronizer()).origin, image);
  }
  sim::ReplayCursor cursor(*rig.platform, run.schedule, faults);
  const std::uint64_t end = run.schedule.final_result.cycles;
  if (!per_cycle) cursor.advance_to(end);
  while (cursor.cycle() < end) cursor.advance_to(cursor.cycle() + 1);
  return rig.platform->save_snapshot();
}

bool same_state(const sim::Snapshot& a, const sim::Snapshot& b) {
  return sim::snapshots_equal(a, b, sim::DivergenceScope::kFullState);
}

/// One sampled fault and the slice bound it exercises.
struct BoundFault {
  std::string bound;
  sim::FaultAction action;
};

/// A seeded sample of faults that bound a slice by themselves: DM flips
/// 1, 7 and 60 cycles after a deposit (off every recorded event cycle),
/// as a single bit, a multi-bit mask and a 3-word span; wake-ups delayed
/// by 1, 3 and 200 cycles while the other cores run; dropped wake-ups.
std::vector<BoundFault> slice_bound_faults(const RecordedRun& run) {
  const sim::EventSchedule& schedule = run.schedule;
  std::vector<std::size_t> deposits;
  std::vector<std::size_t> wakes;
  for (std::size_t i = 0; i < schedule.events.size(); ++i)
    (is_wake(schedule.events[i]) ? wakes : deposits).push_back(i);
  util::Rng rng(15);
  std::vector<BoundFault> faults;
  // (mask, span): a single bit, a multi-bit mask, a 3-word span.
  const std::pair<std::uint16_t, std::uint32_t> patterns[] = {
      {0, 1}, {0x0ff0, 1}, {0, 3}};
  for (const std::uint64_t after : {1u, 7u, 60u}) {
    for (const auto& [mask, span] : patterns) {
      for (int n = 0; n < 3; ++n) {
        const sim::ExternalEvent& deposit =
            schedule.events[deposits[rng.next_below(deposits.size())]];
        BoundFault fault{after == 1 ? "dm flip at deposit + 1"
                                    : "dm flip later after a deposit",
                         {}};
        fault.action.kind = sim::FaultAction::Kind::kDmFlip;
        fault.action.cycle = deposit.cycle + after;
        fault.action.addr =
            deposit.addr + static_cast<std::uint32_t>(rng.next_below(
                               std::max<std::size_t>(deposit.words.size(), 1)));
        fault.action.bit = static_cast<unsigned>(rng.next_below(16));
        fault.action.mask = mask;
        fault.action.span = span;
        faults.push_back(fault);
      }
    }
  }
  const unsigned cores = Registry::builtins()
                             .make(run.spec.workload, run.spec.params)
                             ->num_cores();
  auto wake_fault = [&](const char* bound, sim::FaultAction::Kind kind,
                        std::uint64_t delay) {
    const std::size_t index = wakes[rng.next_below(wakes.size())];
    const sim::ExternalEvent& event = schedule.events[index];
    BoundFault fault{bound, {}};
    fault.action.kind = kind;
    fault.action.event_index = index;
    fault.action.core = event.kind == sim::EventKind::kInterrupt
                            ? event.core
                            : static_cast<unsigned>(rng.next_below(cores));
    fault.action.delay = delay;
    return fault;
  };
  for (int n = 0; n < 3; ++n) {
    for (const std::uint64_t delay : {1u, 3u, 200u}) {
      faults.push_back(wake_fault("delayed wake-up",
                                  sim::FaultAction::Kind::kDelayWake, delay));
    }
    faults.push_back(
        wake_fault("dropped wake-up", sim::FaultAction::Kind::kDropWake, 0));
  }
  return faults;
}

TEST(SliceStepping, MatchesPerCycleSteppingUnderSampledFaults) {
  const RecordedRun& run = sleepgen_recording();
  const sim::Snapshot clean = stepped_final_state(run, {}, false);
  const sim::Snapshot clean_reference = stepped_final_state(run, {}, true);
  EXPECT_TRUE(same_state(clean, clean_reference))
      << sim::diff_snapshots(clean_reference, clean);
  EXPECT_EQ(sim::normalized_state_hash(clean), run.schedule.final_state_hash);

  // A lost fault only shows when the fault changes the outcome, so every
  // bound the sample exercises must have unmasked faults.
  std::map<std::string, unsigned> unmasked;
  for (const BoundFault& fault : slice_bound_faults(run)) {
    const std::vector<sim::FaultAction> faults{fault.action};
    const sim::Snapshot sliced = stepped_final_state(run, faults, false);
    const sim::Snapshot reference = stepped_final_state(run, faults, true);
    EXPECT_TRUE(same_state(sliced, reference))
        << fault.bound << " (cycle " << fault.action.cycle << ", addr "
        << fault.action.addr << ", event " << fault.action.event_index
        << ", core " << fault.action.core << ", delay " << fault.action.delay
        << "): " << sim::diff_snapshots(reference, sliced);
    unmasked[fault.bound] += same_state(sliced, clean) ? 0 : 1;
  }
  for (const char* bound :
       {"dm flip at deposit + 1", "dm flip later after a deposit",
        "delayed wake-up", "dropped wake-up"}) {
    EXPECT_GT(unmasked[bound], 0u) << "no " << bound << " changed the outcome";
  }

  // An IM-corrupted rig: the first decodable flip from a seeded position.
  const auto workload =
      Registry::builtins().make(run.spec.workload, run.spec.params);
  const std::vector<std::uint32_t>& image =
      workload->program(run.spec.with_synchronizer()).image;
  util::Rng rng(15);
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<std::uint32_t> corrupted = image;
    corrupted[rng.next_below(image.size())] ^= std::uint32_t{1}
                                               << rng.next_below(32);
    sim::Snapshot sliced;
    try {
      sliced = stepped_final_state(run, {}, false, corrupted);
    } catch (const std::invalid_argument&) {
      continue;  // undecodable: try the next flip
    }
    const sim::Snapshot reference =
        stepped_final_state(run, {}, true, corrupted);
    EXPECT_TRUE(same_state(sliced, reference))
        << sim::diff_snapshots(reference, sliced);
    return;
  }
  ADD_FAILURE() << "no decodable IM flip in 64 attempts";
}

// --- exact replay error paths ------------------------------------------------

/// `replay_recorded_run`'s error on a tampered in-memory copy of the
/// sleepgen recording (`deserialize` would reject some of these copies;
/// in-memory schedules reach the replay unchecked).
template <typename Tamper>
std::string tampered_replay_error(Tamper tamper) {
  RecordedRun run = sleepgen_recording();
  tamper(run.schedule);
  const ReplayReport report =
      scenario::replay_recorded_run(run, Registry::builtins());
  EXPECT_FALSE(report.bit_identical);
  return report.error;
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(ExactReplayErrors, LateInterruptStallsBeforeItsRecordedCycle) {
  const std::size_t index = first_wake_event(sleepgen_recording()).first;
  ASSERT_LT(index, sleepgen_recording().schedule.events.size());
  const std::uint64_t late =
      sleepgen_recording().schedule.events[index].cycle + 1;
  // Every core sleeps until the interrupt, so the replay cannot reach the
  // postponed delivery cycle.
  const std::string error = tampered_replay_error([&](sim::EventSchedule& s) {
    for (std::size_t i = index; i < s.events.size(); ++i) ++s.events[i].cycle;
  });
  EXPECT_TRUE(
      contains(error, "replay diverged from schedule: all cores asleep"))
      << error;
  EXPECT_TRUE(contains(error, "before the event recorded at cycle " +
                                  std::to_string(late)))
      << error;
}

TEST(ExactReplayErrors, DroppedLastWakeupMissesTheFinalResult) {
  const sim::EventSchedule& schedule = sleepgen_recording().schedule;
  std::size_t last = schedule.events.size();
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    if (is_wake(schedule.events[i])) last = i;
  }
  ASSERT_LT(last, schedule.events.size());
  const std::string error = tampered_replay_error([&](sim::EventSchedule& s) {
    s.events.erase(s.events.begin() + static_cast<std::ptrdiff_t>(last));
  });
  EXPECT_TRUE(contains(error, "replay final result mismatch")) << error;
}

TEST(ExactReplayErrors, ShortEndOrFlippedHashMissesTheFinalState) {
  EXPECT_TRUE(contains(tampered_replay_error([](sim::EventSchedule& s) {
                         --s.final_result.cycles;
                       }),
                       "replay final state hash mismatch"));
  EXPECT_TRUE(contains(tampered_replay_error([](sim::EventSchedule& s) {
                         s.final_state_hash ^= 1;
                       }),
                       "replay final state hash mismatch"));
}

/// An interrupt moved one cycle early behind a deposit recorded at its
/// own cycle: the schedule's cycles are no longer ordered.
std::pair<sim::EventSchedule, std::uint64_t> early_interrupt_schedule() {
  sim::EventSchedule schedule = sleepgen_recording().schedule;
  for (std::size_t i = 1; i < schedule.events.size(); ++i) {
    sim::ExternalEvent& event = schedule.events[i];
    const sim::ExternalEvent& before = schedule.events[i - 1];
    if (is_wake(event) && !is_wake(before) && before.cycle == event.cycle &&
        event.cycle > 0) {
      --event.cycle;
      return {std::move(schedule), event.cycle};
    }
  }
  ADD_FAILURE() << "sleepgen schedule has no interrupt behind a deposit";
  return {std::move(schedule), 0};
}

TEST(ExactReplayErrors, EarlyInterruptBehindADepositIsReported) {
  const std::pair<sim::EventSchedule, std::uint64_t> early =
      early_interrupt_schedule();
  const std::string error = tampered_replay_error(
      [&](sim::EventSchedule& s) { s = early.first; });
  EXPECT_TRUE(contains(error, "event at cycle " + std::to_string(early.second)))
      << error;
}

/// What a cursor over `schedule` throws (a failure when it throws
/// nothing); exact replay must report the same error instead of throwing.
std::string cursor_rejection(const sim::EventSchedule& schedule) {
  ReplayRig rig =
      scenario::make_replay_rig(sleepgen_recording(), Registry::builtins());
  std::string error;
  try {
    sim::ReplayCursor cursor(*rig.platform, schedule, {});
  } catch (const std::invalid_argument& rejected) {
    error = rejected.what();
  }
  if (error.empty()) {
    ADD_FAILURE() << "the cursor accepted the schedule";
    return error;
  }
  EXPECT_EQ(sim::replay_schedule(*rig.platform, schedule).error, error);
  return error;
}

TEST(ExactReplayErrors, CursorRejectsAnUnorderedSchedule) {
  // The cursor delivers an event only on its exact cycle; one recorded
  // behind the clock would silently block every later event.
  const auto [schedule, early] = early_interrupt_schedule();
  const std::string error = cursor_rejection(schedule);
  EXPECT_TRUE(contains(error, "event at cycle " + std::to_string(early)))
      << "cursor error: '" << error << "'";
}

TEST(ExactReplayErrors, CursorRejectsEventsThePlatformDoesNotHave) {
  // Replay hands events to the platform's host API, which indexes cores
  // and DM words unchecked, and a re-sealed envelope can name anything.
  // One event per kind, just past the platform's bounds, inserted before
  // the first wake-up at its cycle.
  const RecordedRun& run = sleepgen_recording();
  const sim::PlatformConfig config =
      scenario::make_replay_rig(run, Registry::builtins()).platform->config();
  const std::uint32_t dm_words = config.dm_words();
  const std::size_t index = first_wake_event(run).first;
  ASSERT_LT(index, run.schedule.events.size());
  const std::uint64_t cycle = run.schedule.events[index].cycle;

  sim::ExternalEvent wake;
  wake.kind = sim::EventKind::kInterrupt;
  wake.core = config.num_cores;
  sim::ExternalEvent write;
  write.kind = sim::EventKind::kDmWrite;
  write.addr = dm_words;
  sim::ExternalEvent block;
  block.kind = sim::EventKind::kDmWriteBlock;
  block.addr = dm_words - 1;
  block.words = {1, 2};
  const std::pair<sim::ExternalEvent, std::string> cases[] = {
      {wake, "wakes core " + std::to_string(config.num_cores) + " of " +
                 std::to_string(config.num_cores)},
      {write, "writes DM word " + std::to_string(dm_words) + " of " +
                  std::to_string(dm_words)},
      {block, "writes DM words [" + std::to_string(dm_words - 1) + ", " +
                  std::to_string(dm_words + 1) + ") of " +
                  std::to_string(dm_words)},
  };
  for (const auto& [bad, what] : cases) {
    sim::EventSchedule schedule = run.schedule;
    sim::ExternalEvent event = bad;
    event.cycle = cycle;
    schedule.events.insert(
        schedule.events.begin() + static_cast<std::ptrdiff_t>(index), event);
    const std::string error = cursor_rejection(schedule);
    EXPECT_TRUE(contains(error, "event " + std::to_string(index) +
                                    " at cycle " + std::to_string(cycle) +
                                    " " + what))
        << "cursor error: '" << error << "'";
  }
}

/// Recomputes a sealed image's trailing FNV-1a 64 after an edit, as a
/// tampering writer would.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t hash =
      util::fnv1a64(std::span<const std::uint8_t>(bytes.data(), body));
  for (unsigned k = 0; k < 8; ++k)
    bytes[body + k] = static_cast<std::uint8_t>(hash >> (8 * k));
}

TEST(ExactReplayErrors, ImplausibleBlockWordCountIsRejectedBeforeAllocating) {
  // A re-sealed image whose block event claims about 10^6 words while the
  // image holds two: the count is refused before the words are allocated.
  sim::EventSchedule schedule;
  sim::ExternalEvent block;
  block.kind = sim::EventKind::kDmWriteBlock;
  block.words = {1, 2};
  schedule.events.push_back(block);
  std::vector<std::uint8_t> bytes = schedule.serialize();
  // Magic 8, version 4, fingerprint 8, event count 8, then the event's
  // kind 1, cycle 8 and address 4 bytes: the u32 word count follows.
  constexpr std::size_t kWordCount = 8 + 4 + 8 + 8 + 1 + 8 + 4;
  ASSERT_EQ(bytes[kWordCount], 2u);
  bytes[kWordCount + 2] = 0x0f;  // 2 + 15 * 65536 = 983042 words
  reseal(bytes);
  std::string error;
  try {
    (void)sim::EventSchedule::deserialize(bytes);
  } catch (const std::invalid_argument& rejected) {
    error = rejected.what();
  }
  EXPECT_EQ(error, "event schedule: implausible block word count");
}

TEST(ExactReplayErrors, EnvelopeWithoutTheLockstepAnalyzerIsRejected) {
  // Right after the spec, an envelope keeps the byte of a retired mode
  // (recording without the lockstep analyzer), always true. Re-sealed with
  // it false, the image is refused.
  const RecordedRun& run = sleepgen_recording();
  std::vector<std::uint8_t> bytes = run.serialize();
  EXPECT_EQ(RecordedRun::deserialize(bytes).serialize(), bytes);
  // Magic 8 and version 4, then the spec codec's bytes.
  const std::size_t flag = 8 + 4 + scenario::run_spec_bytes(run.spec).size();
  ASSERT_EQ(bytes[flag], 1u);
  bytes[flag] = 0;
  reseal(bytes);
  std::string error;
  try {
    (void)RecordedRun::deserialize(bytes);
  } catch (const std::invalid_argument& rejected) {
    error = rejected.what();
  }
  EXPECT_EQ(error,
            "recorded run: recorded without the lockstep analyzer (retired)");
}

}  // namespace
}  // namespace ulpsync
