#pragma once

/// Parallel sweep engine: executes `RunSpec`s on a host thread pool. Every
/// run owns its `Platform`, its workload instance and its analyzer, so runs
/// are embarrassingly parallel; results land at their spec's index, which
/// makes the output — and anything serialized from it — identical whether
/// the sweep ran serially or on N threads.

#include <cstddef>
#include <cstdint>
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
/// once per `Engine::warm_groups` group by the engine, or explicitly via
/// `Engine::capture_warm_state`, and attached to specs through
/// `RunSpec::resume_from`.
struct WarmState {
  sim::Snapshot snapshot;
  core::LockstepAnalyzer::Metrics lockstep;
};

/// Identity of a spec's deterministic simulation prefix: the spec codec's
/// bytes (`run_spec_bytes`) with `max_cycles` zeroed and `energy` cleared.
/// Two specs with equal keys simulate bit-identically up to any common
/// cycle — everything that influences the simulation is included, the
/// fan-out axis (`max_cycles`) and the energy request (it only shapes the
/// derived report columns) are not. This is the grouping key of
/// `Engine::warm_groups` and the identity checkpoint-ring entries are
/// validated against.
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
/// periodically snapshots its complete state — platform, lockstep metrics,
/// and the drive loop's host words — into a bounded ring of entry files
/// under `<dir>/run-<slot>/` with a crash-consistent manifest, every
/// `stride` simulated cycles, keeping the newest `keep` entries. A run
/// first looks for its newest valid ring entry and continues from it
/// instead of starting cold; results are bit-exact either way, so a killed
/// soak loses at most one stride of work and nothing of its
/// reproducibility.
struct CheckpointRingOptions {
  std::string dir;           ///< ring root; empty disables the ring
  std::uint64_t stride = 0;  ///< cycles between entries; 0 disables
  unsigned keep = 4;         ///< entries retained per run

  /// True when both a directory and a stride are configured.
  [[nodiscard]] bool enabled() const { return !dir.empty() && stride != 0; }
};

/// Host-side execution knobs of a sweep; simulation results never depend
/// on them.
struct EngineOptions {
  /// Worker threads for `run`; 0 picks the hardware concurrency.
  unsigned jobs = 1;
  /// Crash-resumable periodic checkpoints (see `CheckpointRingOptions`).
  /// Disabled by default.
  CheckpointRingOptions checkpoint_ring;
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
  /// corresponds to `specs[i]`. Each of `warm_groups(specs)` simulates its
  /// shared warm-up prefix once and resumes every member from it; a failed
  /// capture runs the group cold.
  [[nodiscard]] std::vector<RunRecord> run(const std::vector<RunSpec>& specs) const;
  /// Expands the matrix and executes every spec (see the vector overload).
  [[nodiscard]] std::vector<RunRecord> run(const Matrix& matrix) const {
    return run(matrix.expand());
  }

  /// The specs of `specs` that share one warm-up prefix, as groups of
  /// ascending spec indices — the single grouping rule of `run`, the
  /// sharded-sweep planner and the design search. A spec is eligible when
  /// its `checkpoint_at` lies in (0, `max_cycles`) and it sets neither
  /// `resume_from` nor `record_events_to`; eligible specs group by
  /// `warm_group_key`. A group needs two or more members and a workload
  /// without a windowed drive (its host loop keeps state a platform
  /// snapshot cannot hold); only group leaders are built to check that.
  /// Deterministic: equal spec lists give equal groups.
  [[nodiscard]] std::vector<std::vector<std::size_t>> warm_groups(
      const std::vector<RunSpec>& specs) const;

  /// Runs `spec`'s setup (program + inputs) and simulates to `cycle`,
  /// returning the warm state to resume other specs from — the explicit
  /// form of the `checkpoint_at` grouping. Returns nullptr when the
  /// workload is unknown, has a windowed drive, or fails to set up.
  [[nodiscard]] std::shared_ptr<const WarmState> capture_warm_state(
      const RunSpec& spec, std::uint64_t cycle) const;

 private:
  [[nodiscard]] RunRecord run_one_impl(const RunSpec& spec,
                                       const WarmState* warm,
                                       std::uint64_t ring_slot) const;

  const Registry* registry_;
  EngineOptions options_;
};

}  // namespace ulpsync::scenario
