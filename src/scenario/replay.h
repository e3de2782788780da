#pragma once

/// Recorded-run envelopes: the self-contained `.evt` artifact the engine
/// writes when `RunSpec::record_events_to` is set.
///
/// An envelope bundles everything a later process needs to re-execute and
/// audit one run bit-exactly: the full spec (the shard-bundle wire codec,
/// `encode_run_spec`), the run's external-event schedule with its recorded
/// outcome (`sim::EventSchedule`), and the original record's CSV row as
/// the byte-exact comparison target. Like shard bundles and snapshots, the
/// file is a versioned little-endian image with a trailing FNV-1a hash.
///
/// `replay_recorded_run` rebuilds the workload and platform from the spec,
/// replays the schedule exactly (`sim::replay_schedule`, a fault-free
/// `sim::ReplayCursor`), re-adopts the recorded host-loop words,
/// reassembles a `RunRecord` exactly as the engine would, and compares its
/// CSV row byte-for-byte against the recorded one. `record_one` is the
/// canonical recording routine the engine's record path delegates to —
/// also usable directly by tools that want the envelope in memory
/// (tools/fault_campaign).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "sim/event_schedule.h"

namespace ulpsync::scenario {

/// One recorded run: spec + event schedule + the original CSV row (see
/// the file comment).
struct RecordedRun {
  /// Version 2: the embedded spec codec gained the optional
  /// `EnergyRequest` (and the comparison CSV row its power columns).
  static constexpr std::uint32_t kFormatVersion = 2;

  RunSpec spec;
  sim::EventSchedule schedule;
  /// `to_csv_row` of the original record — the byte-exact replay target.
  std::string csv_row;

  /// Serializes to the versioned wire image (magic, version, payload,
  /// trailing FNV-1a 64 hash).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parses a serialized image. Throws std::invalid_argument on a bad
  /// magic, an unsupported version, truncation, a trailing-hash mismatch,
  /// a malformed embedded schedule, or a recording made without the
  /// lockstep analyzer (a retired mode whose wire byte is always true).
  [[nodiscard]] static RecordedRun deserialize(
      std::span<const std::uint8_t> bytes);
  /// FNV-1a 64 hash of `serialize()` — what golden-schedule hashes pin.
  [[nodiscard]] std::uint64_t content_hash() const;
};

/// Writes `serialize()` to a file. Throws std::runtime_error on I/O error.
void write_recorded_run_file(const std::string& path, const RecordedRun& run);
/// Reads and parses an envelope file. Throws std::runtime_error on I/O
/// error, std::invalid_argument on a malformed image.
[[nodiscard]] RecordedRun read_recorded_run_file(const std::string& path);

/// What `record_one` produced: the finished record plus its envelope.
struct RecordOutcome {
  RunRecord record;
  RecordedRun recorded;
};

/// Runs one spec cold with an attached event recorder and returns both
/// the finished record and the recorded-run envelope. This is the
/// canonical recording routine: the engine's record path
/// (`RunSpec::record_events_to`) delegates here, deliberately skipping
/// shared runs and checkpoint rings — bit-identical host optimizations,
/// so the recorded artifact equals what any engine path would produce.
/// Throws on host-side failures (unknown workload, assembly errors); the
/// engine maps those to "error" records as usual.
[[nodiscard]] RecordOutcome record_one(const RunSpec& spec,
                                       const Registry& registry);

/// The workload + freshly prepared platform a recorded run replays onto:
/// configuration resolved from the spec, program loaded, inputs NOT
/// loaded (the schedule carries them). Fault campaigns build one clean
/// and one corrupted rig per injected fault.
struct ReplayRig {
  std::shared_ptr<const Workload> workload;
  std::unique_ptr<sim::Platform> platform;
};

/// Builds a replay rig for `run`. Throws on an unknown workload or an
/// unassemblable program.
[[nodiscard]] ReplayRig make_replay_rig(const RecordedRun& run,
                                        const Registry& registry);

/// What replaying a recorded run produced.
struct ReplayReport {
  /// The reassembled record (valid when `error` is empty).
  RunRecord record;
  /// `to_csv_row(record)` of the replayed run.
  std::string csv_row;
  /// True when the replay reproduced the recording byte-for-byte (CSV row
  /// and normalized final-state hash).
  bool bit_identical = false;
  /// Empty on a faithful replay; otherwise the first mismatch.
  std::string error;
};

/// Re-executes a recorded run from its envelope and checks bit-identity
/// (see the file comment). Never throws on divergence — mismatches are
/// reported in the result; host-side failures land in `error` too.
[[nodiscard]] ReplayReport replay_recorded_run(const RecordedRun& run,
                                               const Registry& registry);

}  // namespace ulpsync::scenario
