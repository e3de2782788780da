#pragma once

/// Crash-resumable checkpoint rings for long runs, and the wire encoding
/// of their entries' payload, `WarmState` (platform snapshot + lockstep
/// metrics).
///
/// A ring is a bounded directory of `.ring` entry files plus a `MANIFEST`.
/// While a run executes with `EngineOptions::checkpoint_ring` set, the
/// engine offers the run's state to a `RingWriter` every `stride` simulated
/// cycles; each accepted offer becomes one entry — the full `WarmState` at
/// a host-consistent point, with the drive loop's host words carried in the
/// snapshot's `host_words` field — and entries beyond `keep` are pruned
/// oldest-first. Writes are crash-consistent: an entry file is written to a
/// temporary name and atomically renamed, and only then is the manifest
/// (also written via rename) updated to reference it, so a reader never
/// observes a manifest pointing at a torn entry. A killed run therefore
/// resumes from its newest valid entry (`load_latest_ring_entry`) with
/// bit-exact results; corrupt or missing entries fall back to older ones
/// and finally to a cold start.
///
/// Entries are keyed by a 64-bit *identity* — a hash of everything that
/// determines the run's simulation (`warm_group_key`, which excludes
/// `max_cycles`) — so entries survive a budget change, and serve every
/// member of a budget fan-out's shared run, but can never be restored into
/// a differently configured run.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/lockstep.h"
#include "scenario/workload.h"
#include "sim/snapshot.h"
#include "util/wire.h"

namespace ulpsync::scenario {

/// FNV-1a 64-bit hash (the project-wide content-hash primitive).
using util::fnv1a64;

/// The payload of one ring entry: a platform snapshot plus the
/// lockstep-analyzer metrics accumulated up to it, so a resumed run's
/// lockstep numbers equal an uninterrupted run's.
struct WarmState {
  sim::Snapshot snapshot;
  core::LockstepAnalyzer::Metrics lockstep;
};

/// Stable binary image of a `WarmState`: the two lockstep counts (observed
/// and full-lockstep cycles) followed by the snapshot's own wire format
/// (`sim::Snapshot::serialize`).
[[nodiscard]] std::vector<std::uint8_t> serialize_warm_state(
    const WarmState& state);
/// Parses `serialize_warm_state` output. Throws std::invalid_argument on
/// truncation or a malformed snapshot image.
[[nodiscard]] WarmState deserialize_warm_state(
    std::span<const std::uint8_t> bytes);

/// Ring directory of one run: `<base>/run-<slot, zero-padded>`.
[[nodiscard]] std::string ring_run_dir(const std::string& base,
                                       std::uint64_t slot);

/// One restored ring entry.
struct RingEntry {
  WarmState state;
  std::uint64_t cycle = 0;  ///< cycle the entry was captured at
};

/// Newest manifest entry of the ring at `dir` that (a) matches `identity`,
/// (b) was captured at a cycle <= `max_cycle`, and (c) deserializes with a
/// matching content hash. Older entries are tried in turn; nullopt when the
/// ring is absent, empty, or wholly unusable — resumption then degrades to
/// a cold start, never to an error.
[[nodiscard]] std::optional<RingEntry> load_latest_ring_entry(
    const std::string& dir, std::uint64_t identity, std::uint64_t max_cycle);

/// The engine-side `CheckpointSink`: persists accepted offers into the ring
/// at `dir` (see the file comment for the write protocol). Construction
/// loads any existing manifest — a resumed run extends its own ring; a ring
/// left by a differently configured run (identity mismatch) is restarted
/// from scratch. I/O failures throw std::runtime_error, surfacing as an
/// "error" record rather than silently producing a non-resumable soak.
class RingWriter final : public CheckpointSink {
 public:
  RingWriter(std::string dir, std::uint64_t identity, std::uint64_t stride,
             unsigned keep, std::uint64_t start_cycle,
             const core::LockstepAnalyzer* analyzer);

  /// Next stride boundary after the last accepted offer.
  [[nodiscard]] std::uint64_t next_due() const override { return next_due_; }
  /// Persists a due offer as a ring entry (no-op before `next_due`).
  void offer(sim::Platform& platform,
             const std::vector<std::uint64_t>& host_words) override;

  /// Entries currently referenced by the manifest (for tests and `status`).
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }

 private:
  struct ManifestRow {
    std::uint64_t cycle = 0;
    std::string file;
    std::uint64_t hash = 0;
  };

  void write_manifest() const;

  std::string dir_;
  std::uint64_t identity_;
  std::uint64_t stride_;
  unsigned keep_;
  std::uint64_t next_due_;
  const core::LockstepAnalyzer* analyzer_;
  std::vector<ManifestRow> entries_;  ///< oldest first
  bool dir_ready_ = false;
};

}  // namespace ulpsync::scenario
