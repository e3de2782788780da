#include "scenario/replay.h"

#include <stdexcept>

#include "core/lockstep.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/record.h"
#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace {

// "ULPERUN\n" — the envelope's own magic; the embedded schedule carries
// its own ("ULPEVT1\n") and both trailing hashes must verify.
constexpr util::Magic kMagic = {'U', 'L', 'P', 'E', 'R', 'U', 'N', '\n'};

}  // namespace

std::vector<std::uint8_t> RecordedRun::serialize() const {
  return util::seal(kMagic, kFormatVersion, [&](util::WireWriter& w) {
    encode_run_spec(w, spec);
    // Recordings always run with the lockstep analyzer attached; the byte
    // stays on the wire so existing envelopes keep their bytes.
    w.boolean(true);
    w.blob(schedule.serialize());
    w.str(csv_row);
  });
}

RecordedRun RecordedRun::deserialize(std::span<const std::uint8_t> bytes) {
  util::WireReader r =
      util::unseal(bytes, kMagic, kFormatVersion, "recorded run");
  RecordedRun run;
  run.spec = decode_run_spec(r);
  if (!r.boolean())
    throw std::invalid_argument(
        "recorded run: recorded without the lockstep analyzer (retired)");
  run.schedule = sim::EventSchedule::deserialize(r.blob());
  run.csv_row = r.str();
  if (!r.at_end())
    throw std::invalid_argument("recorded run: trailing bytes after image");
  return run;
}

std::uint64_t RecordedRun::content_hash() const {
  return fnv1a64(serialize());
}

void write_recorded_run_file(const std::string& path, const RecordedRun& run) {
  util::write_file_atomic(path, run.serialize());
}

RecordedRun read_recorded_run_file(const std::string& path) {
  return RecordedRun::deserialize(util::read_file_bytes(path));
}

RecordOutcome record_one(const RunSpec& spec, const Registry& registry) {
  const auto workload = registry.make(spec.workload, spec.params);

  sim::Platform platform(resolved_config(spec, *workload));
  platform.load_program(workload->program(spec.with_synchronizer()));

  // Attach the recorder *before* the inputs are loaded, so the cycle-0
  // input preloads are part of the recorded stream and a replay is
  // self-contained (it never calls load_inputs).
  sim::EventRecorder recorder;
  recorder.attach(platform);
  workload->load_inputs(platform);

  core::LockstepAnalyzer analyzer;
  analyzer.attach(platform);

  const sim::RunResult result = workload->drive(platform, spec.max_cycles);

  std::vector<std::uint64_t> host_words;
  if (const WindowedDrive* windowed = workload->windowed_drive())
    host_words = windowed->host_words();

  RecordOutcome outcome;
  outcome.record.spec = spec;
  finish_record(outcome.record, *workload, platform, result,
                analyzer.metrics().lockstep_fraction());
  outcome.recorded.spec = spec;
  outcome.recorded.spec.record_events_to.clear();
  outcome.recorded.schedule = recorder.finish(result, host_words);
  outcome.recorded.csv_row = to_csv_row(outcome.record);
  return outcome;
}

ReplayRig make_replay_rig(const RecordedRun& run, const Registry& registry) {
  ReplayRig rig;
  rig.workload = registry.make(run.spec.workload, run.spec.params);
  rig.platform = std::make_unique<sim::Platform>(
      resolved_config(run.spec, *rig.workload));
  rig.platform->load_program(
      rig.workload->program(run.spec.with_synchronizer()));
  return rig;
}

ReplayReport replay_recorded_run(const RecordedRun& run,
                                 const Registry& registry) {
  ReplayReport report;
  report.record.spec = run.spec;
  try {
    ReplayRig rig = make_replay_rig(run, registry);

    core::LockstepAnalyzer analyzer;
    analyzer.attach(*rig.platform);

    const sim::ReplayOutcome outcome =
        sim::replay_schedule(*rig.platform, run.schedule);
    if (!outcome.error.empty()) {
      report.error = outcome.error;
      return report;
    }

    // Re-adopt the recorded host-loop words: verify() and report() of
    // windowed workloads read them (windows completed, busy cycles).
    if (const WindowedDrive* windowed = rig.workload->windowed_drive())
      windowed->adopt_host_words(run.schedule.final_host_words);

    finish_record(report.record, *rig.workload, *rig.platform, outcome.result,
                  analyzer.metrics().lockstep_fraction());
    report.csv_row = to_csv_row(report.record);
    report.bit_identical = report.csv_row == run.csv_row;
    if (!report.bit_identical)
      report.error = "replayed CSV row differs from the recorded row:\n  got " +
                     report.csv_row + "\n  want " + run.csv_row;
  } catch (const std::exception& error) {
    report.error = error.what();
  }
  return report;
}

}  // namespace ulpsync::scenario
