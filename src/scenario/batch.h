#pragma once

/// Batched many-platform sweep execution.
///
/// A cohort sweep runs the *same program on the same platform design* many
/// times, varying only the generated input data (one patient per run). The
/// scalar `Engine` simulates every run on its own cycle-level `Platform`;
/// the `BatchEngine` instead groups such runs into *lane groups* and steps
/// each group window by window:
///
///  - one **leader** lane runs on a real `Platform` — it is the group's
///    timing source (cycles, counters, synchronizer stats, lockstep
///    metrics, energy inputs);
///  - every lane (leader included) is *functionally emulated* against a
///    shared `DecodedImage` with per-lane SoA state (`sim::batch::LaneGroup`),
///    recording per-core retirement traces;
///  - a follower lane whose traces match the leader's is cycle-identical
///    to it (platform timing depends on the trace, never on data values),
///    so its record is the leader's timing plus its own architectural and
///    data-memory state;
///  - the leader's emulated window is validated against the real platform
///    every window — any model gap, trap, synchronizer op, cross-core
///    read/write overlap or budget stop falls the affected lanes back to
///    scalar `drive_windowed` from the window boundary, **bit-exactly**
///    (the boundary materializes into a full `sim::Snapshot`).
///
/// Records are byte-identical to the scalar engine's in every case — the
/// batch engine is purely a host-side throughput optimization, exactly like
/// the region executor inside one platform.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "sim/snapshot.h"

namespace ulpsync::scenario {

/// Grouping key of the batch engine: the spec codec's bytes
/// (`run_spec_bytes`) with the input generator at its default and
/// `checkpoint_at` and `energy` cleared. Specs with equal keys run the same
/// program on the same platform configuration for the same budget and may
/// share a lane group (they differ only in generator-derived input data,
/// which is exactly what `WindowedDrive::deposit` varies per lane).
[[nodiscard]] std::string batch_group_key(const RunSpec& spec);

/// Host-side execution knobs of a batched sweep; simulation results never
/// depend on them.
struct BatchOptions {
  /// Worker threads (lane groups are distributed over them); 0 picks the
  /// hardware concurrency.
  unsigned jobs = 1;
  /// Crash-resumable periodic checkpoints, same semantics and on-disk
  /// layout as the scalar engine's (`CheckpointRingOptions`): every lane
  /// keeps its own ring under `run-<spec index>/`, so a batched soak can be
  /// resumed by the scalar engine and vice versa. A lane that finds a ring
  /// entry to resume from runs scalar (it starts mid-run, not at the shared
  /// cold boundary).
  CheckpointRingOptions checkpoint_ring;
  /// Also return every run's final platform snapshot (where the engine has
  /// one: batched lanes and in-batch scalar fallbacks). The differential
  /// suite uses these to prove byte-identity against scalar runs.
  bool keep_final_snapshots = false;
};

/// What the batch engine did with a sweep — fallbacks are expected and
/// honest (a diverging lane *must* leave the batch), so these are reported,
/// not hidden.
struct BatchStats {
  std::size_t groups = 0;          ///< lane groups formed
  std::size_t batched_runs = 0;    ///< runs that finished on the batch path
  std::size_t scalar_runs = 0;     ///< ineligible/resumed/fallen-back runs
  std::size_t diverged_lanes = 0;  ///< followers whose traces left the leader
  std::size_t group_bails = 0;     ///< windows a whole group left the batch
  std::uint64_t emulated_instructions = 0;
  /// Group-level fallback reasons (bails and leader-validation mismatches;
  /// per-lane divergences are only counted — a cohort can shed hundreds).
  std::vector<std::string> notes;
};

/// Records plus the batch accounting of the sweep that produced them.
struct BatchResult {
  std::vector<RunRecord> records;  ///< index-aligned with the input specs
  BatchStats stats;
  /// Per-spec final platform snapshots when `keep_final_snapshots` is set
  /// (unset entries: the run executed via the scalar engine's `run_one`,
  /// which does not expose its platform).
  std::vector<std::optional<sim::Snapshot>> final_snapshots;
};

/// The batched sweep executor (see the file comment).
class BatchEngine {
 public:
  /// The registry must outlive the engine and stay unmodified while runs
  /// execute (factories are invoked from worker threads).
  explicit BatchEngine(const Registry& registry, BatchOptions options = {});

  /// Executes all specs; `records[i]` always corresponds to `specs[i]` and
  /// is byte-identical to what the scalar engine would produce.
  [[nodiscard]] BatchResult run(const std::vector<RunSpec>& specs) const;
  /// Expands the matrix and executes every spec (see the vector overload).
  [[nodiscard]] BatchResult run(const Matrix& matrix) const {
    return run(matrix.expand());
  }

 private:
  struct Group;  // one lane group's specs and shared configuration
  /// Runs one task. Record and snapshot slots are index-disjoint between
  /// tasks, so concurrent tasks write `result` without locking; `stats` is
  /// task-local and merged by the caller in task order.
  void run_group(const std::vector<RunSpec>& specs, const Group& group,
                 BatchResult& result, BatchStats& stats) const;

  const Registry* registry_;
  BatchOptions options_;
  Engine scalar_;  ///< ineligible specs and whole-run fallbacks
};

}  // namespace ulpsync::scenario
