#pragma once

/// Parallel sweep engine: executes `RunSpec`s on a host thread pool. Every
/// run owns its `Platform`, its workload instance and its analyzer, so runs
/// are embarrassingly parallel; results land at their spec's index, which
/// makes the output — and anything serialized from it — identical whether
/// the sweep ran serially or on N threads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/lockstep.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "sim/snapshot.h"

namespace ulpsync::scenario {

/// Shared warm-up state: a platform snapshot at a spec's `checkpoint_at`
/// cycle plus the lockstep-analyzer metrics accumulated up to it (so a
/// resumed run's lockstep numbers equal an uninterrupted run's). Captured
/// once per identical-prefix group by the engine, or explicitly via
/// `Engine::capture_warm_state`, and attached to specs through
/// `RunSpec::resume_from`.
struct WarmState {
  sim::Snapshot snapshot;
  core::LockstepAnalyzer::Metrics lockstep;
};

/// Identity of a spec's deterministic simulation prefix: two specs with
/// equal keys simulate bit-identically up to any common cycle — everything
/// that influences the simulation is included, the fan-out axis
/// (`max_cycles`) is not. This is the grouping key of the warm-start
/// prepass, the identity checkpoint-ring entries are validated against,
/// and the unit the sharded-sweep planner keeps on one shard.
[[nodiscard]] std::string warm_group_key(const RunSpec& spec);

/// 64-bit identity of a spec's deterministic prefix (hash of its
/// `warm_group_key`) — what checkpoint-ring entries are validated against.
[[nodiscard]] std::uint64_t ring_identity(const RunSpec& spec);

/// The platform configuration a spec resolves to: the workload's base
/// configuration with the spec's overrides applied. Shared by cold runs,
/// warm-up capture and the batch engine, so a snapshot is always taken on a
/// platform prepared exactly like the one it will be restored into.
[[nodiscard]] sim::PlatformConfig resolved_config(const RunSpec& spec,
                                                  const Workload& workload);

/// Assembles the outcome fields of a finished run into `record` (status,
/// counters, sync stats, lockstep fraction, useful ops, energy, verify,
/// report). `record.spec` must already be set. Shared by the scalar engine
/// and the batch engine so records are assembled identically no matter
/// which engine executed the run.
void finish_record(RunRecord& record, const Workload& workload,
                   const sim::Platform& platform, const sim::RunResult& result,
                   double lockstep_fraction);

/// Configuration of the engine's *checkpoint ring* (crash-resumable runs;
/// implementation in scenario/checkpoint_ring.h). When enabled, every run
/// of a checkpointable workload periodically snapshots its complete state
/// — platform, lockstep metrics, and the drive loop's host words — into a
/// bounded ring of entry files under `<dir>/run-<slot>/` with a
/// crash-consistent manifest, every `stride` simulated cycles, keeping the
/// newest `keep` entries. With `resume` set, a run first looks for its
/// newest valid ring entry and continues from it instead of starting cold;
/// results are bit-exact either way, so a killed soak loses at most one
/// stride of work and nothing of its reproducibility.
struct CheckpointRingOptions {
  std::string dir;           ///< ring root; empty disables the ring
  std::uint64_t stride = 0;  ///< cycles between entries; 0 disables
  unsigned keep = 4;         ///< entries retained per run
  bool resume = false;       ///< continue runs from their newest entry

  /// True when both a directory and a stride are configured.
  [[nodiscard]] bool enabled() const { return !dir.empty() && stride != 0; }
};

/// Wall-clock measurements of one sweep (`Engine::run_timed`). Simulation
/// results never depend on these; they only describe how fast the host
/// produced them.
struct SweepPerf {
  double wall_seconds = 0.0;      ///< whole sweep, including scheduling
  /// Cycles actually simulated by the sweep. A warm-started group's shared
  /// prefix counts once (it was simulated once), even though every
  /// resumed record's own cycle count includes it.
  std::uint64_t sim_cycles = 0;
  /// Per-record wall time, aligned with the records.
  std::vector<double> run_wall_seconds;
  // Warm-start accounting (see `RunSpec::checkpoint_at`):
  std::size_t warmups = 0;        ///< shared warm-up prefixes simulated
  std::size_t warm_resumed = 0;   ///< runs resumed from a shared warm state

  /// Aggregate simulator throughput of the sweep.
  [[nodiscard]] double sim_cycles_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(sim_cycles) / wall_seconds;
  }
};

/// Records plus the timing of the sweep that produced them.
struct SweepResult {
  std::vector<RunRecord> records;
  SweepPerf perf;
};

/// Host-side execution knobs of a sweep; simulation results never depend
/// on them (except `measure_lockstep`, which adds the analyzer metrics).
struct EngineOptions {
  /// Worker threads for `run`; 0 picks the hardware concurrency.
  unsigned jobs = 1;
  /// Attach a LockstepAnalyzer to every run. The analyzer registers as the
  /// platform's lockstep sink (not a per-cycle observer), so the host-side
  /// region executor stays active; metric values are bit-identical either
  /// way.
  bool measure_lockstep = true;
  /// Honour `RunSpec::checkpoint_at` grouping: simulate each shared warm-up
  /// prefix once and resume the group members from its snapshot. Results
  /// are bit-identical either way; disable to measure the savings or to
  /// force cold runs.
  bool warm_start = true;
  /// Crash-resumable periodic checkpoints (see `CheckpointRingOptions`).
  /// Disabled by default; simulation results are bit-identical either way.
  CheckpointRingOptions checkpoint_ring;
  /// Progress callback, invoked in completion order under an internal lock
  /// (`done` counts finished runs). Optional.
  std::function<void(const RunRecord& record, std::size_t done,
                     std::size_t total)>
      on_result;
};

/// The sweep executor (see the file comment): runs `RunSpec`s on a host
/// thread pool with deterministic, index-aligned results.
class Engine {
 public:
  /// The registry must outlive the engine and stay unmodified while runs
  /// execute (factories are invoked from worker threads).
  explicit Engine(const Registry& registry, EngineOptions options = {});

  /// Executes one spec in the calling thread. Never throws: host-side
  /// failures (unknown workload, assembly errors) produce a record with
  /// status "error" and the message in `verify_error`. `ring_slot` names
  /// the run's checkpoint-ring directory (`<dir>/run-<slot>/`) when the
  /// ring is enabled — sweeps use the spec's index, sharded workers the
  /// spec's global index, so a resumed process finds the same ring.
  [[nodiscard]] RunRecord run_one(const RunSpec& spec,
                                  std::uint64_t ring_slot = 0) const;

  /// Executes all specs, in parallel when `jobs > 1`; `results[i]` always
  /// corresponds to `specs[i]`.
  [[nodiscard]] std::vector<RunRecord> run(const std::vector<RunSpec>& specs) const;
  /// Expands the matrix and executes every spec (see the vector overload).
  [[nodiscard]] std::vector<RunRecord> run(const Matrix& matrix) const {
    return run(matrix.expand());
  }

  /// Like `run`, but also reports the sweep's wall-clock timing (total
  /// and per-record) and its warm-start accounting.
  [[nodiscard]] SweepResult run_timed(const std::vector<RunSpec>& specs) const;

  /// Runs `spec`'s setup (program + inputs) and simulates to `cycle`,
  /// returning the warm state to resume other specs from — the explicit
  /// form of the `checkpoint_at` grouping. Returns nullptr when the
  /// workload is unknown, not warm-startable, or fails to set up.
  [[nodiscard]] std::shared_ptr<const WarmState> capture_warm_state(
      const RunSpec& spec, std::uint64_t cycle) const;
  /// Expands the matrix and executes every spec with timing (see the
  /// vector overload).
  [[nodiscard]] SweepResult run_timed(const Matrix& matrix) const {
    return run_timed(matrix.expand());
  }

 private:
  [[nodiscard]] RunRecord run_one_impl(const RunSpec& spec,
                                       const WarmState* warm,
                                       std::uint64_t ring_slot) const;

  const Registry* registry_;
  EngineOptions options_;
};

}  // namespace ulpsync::scenario
