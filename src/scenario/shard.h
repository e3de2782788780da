#pragma once

/// Cross-process sharded sweeps: the *sweep* kind of the indexed-job spool
/// (scenario/spool.h).
///
/// A sweep spool's shards are self-contained bundles that carry their
/// specs *with their global sweep indices*. The planner keeps each of
/// `Engine::run_groups` (a budget fan-out that shares one platform run) on
/// one shard and balances shards by spec count (or by predicted seconds,
/// given a cost model); planning simulates nothing and is fully
/// deterministic. A worker runs each group of its bundle once and serves
/// every member's row from that run; it streams a `cost` line per row back
/// into the spool, and with a ring stride interrupted long runs continue
/// from their checkpoint rings under `rings/run-<index>/`. `merge_spool`
/// assembles the parts into one CSV that is **byte-identical** to `to_csv`
/// of a single-process sweep of the same specs, no matter how many workers
/// ran, died, or resumed.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "scenario/spool.h"
#include "util/wire.h"

namespace ulpsync::scenario {

// --- cost model --------------------------------------------------------------

/// Measured per-run wall times fed back into the planner. Workers append
/// one `cost` line per executed run (`cost_line`) through their
/// transport; `load_cost_model` folds any number of such files (or whole
/// spools) into a model the next `plan_spool` schedules with. Exact
/// spec-identity matches (`spec_cost_key`) predict from their own mean;
/// unseen specs fall back to their workload's measured seconds-per-cycle
/// rate times the spec's cycle budget; unseen workloads predict a uniform
/// constant — with no history at all the planner degrades to the original
/// count-balanced split.
struct CostModel {
  /// Measured wall time of one exact spec identity.
  struct SpecCost {
    double wall_seconds = 0.0;  ///< summed over `runs`
    std::size_t runs = 0;
  };
  /// Aggregate seconds-per-cycle rate of one workload.
  struct WorkloadRate {
    double wall_seconds = 0.0;
    double cycles = 0.0;
    std::size_t runs = 0;
  };
  std::map<std::uint64_t, SpecCost> by_spec;
  std::map<std::string, WorkloadRate> by_workload;

  /// True when no measurement was folded in (planner stays count-balanced).
  [[nodiscard]] bool empty() const {
    return by_spec.empty() && by_workload.empty();
  }
  /// Folds one measured run into the model.
  void add(std::uint64_t key, const std::string& workload,
           std::uint64_t cycles, double wall_seconds);
  /// Predicted wall seconds of one run (always > 0).
  [[nodiscard]] double predict(const RunSpec& spec) const;
};

/// Identity a spec's measured cost is keyed on: the FNV-1a64 of its wire
/// encoding, so re-planned sweeps recognize exactly the specs they ran.
[[nodiscard]] std::uint64_t spec_cost_key(const RunSpec& spec);

/// One cost-feedback line: `cost <key> <workload> <cycles> <wall>`.
[[nodiscard]] std::string cost_line(const RunSpec& spec, std::uint64_t cycles,
                                    double wall_seconds);

/// Folds one `cost` line into the model; returns false (and changes
/// nothing) for malformed or foreign lines, so cost files never gate a
/// plan.
bool absorb_cost_line(CostModel& model, const std::string& line);

/// Loads cost feedback from each path: a file of `cost` lines, or a spool
/// directory (reads its `costs/*.cost` part files). Missing paths and
/// malformed lines are skipped, never errors.
[[nodiscard]] CostModel load_cost_model(const std::vector<std::string>& paths);

/// Knobs of `plan_spool`.
struct SpoolOptions {
  unsigned shards = 4;
  /// Cost feedback from earlier runs (`load_cost_model`). Empty keeps the
  /// original count-balanced split; otherwise units are placed
  /// longest-processing-time-first onto the least-loaded shard by
  /// predicted seconds, and shards are numbered heaviest-first so workers
  /// claim the long poles before the stragglers. Shard membership never
  /// affects merged bytes — `merge_spool` assembles by global index.
  CostModel costs;
};

/// What `plan_spool` wrote.
struct PlanResult {
  std::size_t specs = 0;
  unsigned shards = 0;
  std::uint64_t fingerprint = 0;   ///< spec-list fingerprint (see below)
};

/// Serializes the sweep into a spool at `dir` (created; must be empty of
/// spool files). Each of `Engine::run_groups(specs)` stays on one shard,
/// so a worker runs it once. Deterministic: the same specs and options
/// produce the same bundles byte for byte. Throws std::runtime_error on
/// I/O failure and std::invalid_argument on an empty spec list.
PlanResult plan_spool(const std::string& dir, const std::vector<RunSpec>& specs,
                      const Registry& registry, const SpoolOptions& options = {});

/// Fingerprint of a spec list — the identity `plan_spool` stamps into the
/// manifest and every bundle. Two spec lists with equal fingerprints
/// serialize identically, so round-trips can be asserted without a
/// field-by-field `RunSpec` comparison.
[[nodiscard]] std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs);

/// Knobs of `work_spool`.
struct WorkOptions {
  /// Recorded in the claim's `.owner` file; defaults to the process id.
  std::string worker_id;
  /// Re-queue orphaned claims (claimed bundles whose part file never
  /// became final) before working. Only safe when no worker holding them
  /// is still alive — the operator asserts that by passing the flag.
  bool resume = false;
  /// Checkpoint-ring stride for the shard's runs (cycles); 0 disables
  /// rings. Rings live under `<spool>/rings/run-<global index>/`, so a
  /// resumed worker continues interrupted runs mid-flight.
  std::uint64_t ring_stride = 0;
  unsigned ring_keep = 4;
  /// Stop after completing this many shards; 0 = drain the queue.
  std::size_t max_shards = 0;
  /// When non-empty, every run records its external-event schedule to
  /// `<record_dir>/run-<global index>.evt` (a recorded-run envelope,
  /// scenario/replay.h). Recording forces each run cold, ring-less and
  /// alone (bit-identical rows either way), so it composes with — but
  /// disables — `ring_stride` and shared runs.
  std::string record_dir;
};

/// The sweep job kind over `transport` (see `SpoolJob`): each claim splits
/// its bundle's specs by `Engine::run_groups`; the first row requested of
/// a group runs the whole group once (`Engine::run_shared`, ring slot: the
/// group's lowest global index) and every member's row is served from
/// that run. Each row's `cost` line carries the group's wall time divided
/// by its member count. Throws std::runtime_error when `manifest` is not a
/// sweep spool's, or when `options` asks for checkpoint rings on a
/// transport without a local directory.
[[nodiscard]] std::unique_ptr<SpoolJob> sweep_job(SpoolTransport& transport,
                                                  const SpoolManifest& manifest,
                                                  const Registry& registry,
                                                  const WorkOptions& options);

/// Claims and executes shards until the queue is empty (or `max_shards` is
/// reached) — `drain_spool` of the sweep job over the spool directory.
/// Safe to call concurrently from any number of processes or threads on
/// the same spool. Throws std::runtime_error on a corrupt spool or an I/O
/// failure; individual run failures surface as "error" rows, exactly as
/// in a single-process sweep.
WorkReport work_spool(const std::string& dir, const Registry& registry,
                      const WorkOptions& options = {});

/// One loaded shard bundle (exposed for tests and tools; workers use
/// `work_spool`).
struct ShardBundle {
  unsigned id = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> indices;  ///< global spec indices, ascending
  std::vector<RunSpec> specs;
  /// Always -1, one per spec: bundles no longer ship warm states. Kept
  /// only because perfbench's spool loop still reads it.
  std::vector<std::int32_t> warm_ref;
};

/// Parses and validates a bundle image (magic, version, trailing content
/// hash), read from disk or streamed over a transport alike; `what` names
/// the image in diagnostics. Throws std::invalid_argument on truncation,
/// corruption, or a bundle of another version.
[[nodiscard]] ShardBundle parse_bundle_bytes(
    std::span<const std::uint8_t> bytes, const std::string& what);

}  // namespace ulpsync::scenario
