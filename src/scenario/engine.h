#pragma once

/// Parallel sweep engine: executes `RunSpec`s on a host thread pool. Every
/// platform run owns its `Platform`, its workload instance and its
/// analyzer, so runs are embarrassingly parallel; results land at their
/// spec's index, which makes the output — and anything serialized from it —
/// identical whether the sweep ran serially or on N threads.
///
/// Specs that differ only in their cycle budget and energy request (a
/// budget fan-out; see `Engine::run_groups`) are one simulation cut at
/// different cycles, so they share one platform run: it drives to each
/// member's budget in ascending order and finishes that member's record
/// there. Stopping and continuing `Platform::run` is bit-exact, so every
/// record equals the member's own cold run.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/spec.h"

namespace ulpsync::scenario {

/// Identity of a spec's deterministic simulation: the spec codec's bytes
/// (`run_spec_bytes`) with `max_cycles` zeroed and `energy` cleared. Two
/// specs with equal keys simulate bit-identically up to any common cycle —
/// everything that influences the simulation is included, the fan-out
/// axis (`max_cycles`) and the energy request (it only shapes the derived
/// report columns) are not. This is the grouping key of
/// `Engine::run_groups` and the identity checkpoint-ring entries are
/// validated against.
[[nodiscard]] std::string warm_group_key(const RunSpec& spec);

/// 64-bit identity of a spec's deterministic simulation (hash of its
/// `warm_group_key`) — what checkpoint-ring entries are validated against.
[[nodiscard]] std::uint64_t ring_identity(const RunSpec& spec);

/// The platform configuration a spec resolves to: the workload's base
/// configuration with the spec's overrides applied. Shared by the scalar
/// engine, the recorder and the batch engine, so a snapshot is always taken
/// on a platform prepared exactly like the one it will be restored into.
[[nodiscard]] sim::PlatformConfig resolved_config(const RunSpec& spec,
                                                  const Workload& workload);

/// Assembles the outcome fields of a finished run into `record` (status,
/// counters, sync stats, lockstep fraction, useful ops, energy, verify,
/// report). `record.spec` must already be set. Only reads the platform, so
/// a shared run can finish one member's record and continue. Shared by the
/// scalar engine and the batch engine so records are assembled identically
/// no matter which engine executed the run.
void finish_record(RunRecord& record, const Workload& workload,
                   const sim::Platform& platform, const sim::RunResult& result,
                   double lockstep_fraction);

/// Configuration of the engine's *checkpoint ring* (crash-resumable runs;
/// implementation in scenario/checkpoint_ring.h). When enabled, every
/// platform run periodically snapshots its complete state — platform,
/// lockstep metrics, and the drive loop's host words — into a bounded ring
/// of entry files under `<dir>/run-<slot>/` with a crash-consistent
/// manifest, every `stride` simulated cycles, keeping the newest `keep`
/// entries. A run first looks for its newest valid ring entry and
/// continues from it instead of starting cold; results are bit-exact
/// either way, so a killed soak loses at most one stride of work and
/// nothing of its reproducibility.
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

  /// Executes one spec in the calling thread: `run_shared` of a group of
  /// one. Never throws: host-side failures (unknown workload, assembly
  /// errors) produce a record with status "error" and the message in
  /// `verify_error`. `ring_slot` names the run's checkpoint-ring directory
  /// (`<dir>/run-<slot>/`) when the ring is enabled.
  [[nodiscard]] RunRecord run_one(const RunSpec& spec,
                                  std::uint64_t ring_slot = 0) const;

  /// Executes all specs, one `run_shared` per `run_groups(specs)` group,
  /// groups in parallel when `jobs > 1`; `results[i]` always corresponds
  /// to `specs[i]`. A group's ring slot is its lowest spec index.
  [[nodiscard]] std::vector<RunRecord> run(const std::vector<RunSpec>& specs) const;
  /// Expands the matrix and executes every spec (see the vector overload).
  [[nodiscard]] std::vector<RunRecord> run(const Matrix& matrix) const {
    return run(matrix.expand());
  }

  /// The platform runs of `specs`: a partition of the spec indices into
  /// groups, each ascending, ordered by their lowest index — the single
  /// grouping rule of `run`, the sharded-sweep planner and worker, and the
  /// design search. Specs with equal `warm_group_key` form one group when
  /// there are at least two of them and the first one's workload has no
  /// windowed drive (a budget stop lands mid-window, where its host loop
  /// cannot continue); a spec that sets `record_events_to` always runs
  /// alone, as does every other spec. Only the first spec of a candidate
  /// group is built to check its drive. Deterministic: equal spec lists
  /// give equal groups.
  [[nodiscard]] std::vector<std::vector<std::size_t>> run_groups(
      const std::vector<RunSpec>& specs) const;

  /// Executes `specs[members[i]]` — one `run_groups` group, or a single
  /// spec — as one platform run in the calling thread: builds the workload
  /// and platform once, drives to each distinct budget in ascending order
  /// and finishes every member's record at its budget. A run that stops
  /// before a budget (halt, trap, sleep) hands every later member the same
  /// final result, as their cold runs would. Returns the records aligned
  /// with `members`. Never throws: members finished before a failure keep
  /// their records, the rest become "error" records. With the checkpoint
  /// ring enabled the run starts from the newest entry under
  /// `<dir>/run-<ring_slot>/` at or below its smallest budget.
  [[nodiscard]] std::vector<RunRecord> run_shared(
      std::span<const RunSpec> specs, std::span<const std::size_t> members,
      std::uint64_t ring_slot) const;

 private:
  const Registry* registry_;
  EngineOptions options_;
};

}  // namespace ulpsync::scenario
