#pragma once

/// Deterministic platform snapshots: a versioned binary serialization of the
/// *entire* simulation state of a `Platform` — per-core architectural and
/// pipeline microstate, crossbar policy groups, synchronizer RMW in-flight
/// state, event counters, and data-memory contents — such that
/// `Platform::restore_snapshot` followed by N ticks is bit-identical to an
/// uninterrupted run, in counters, traces and VCD, with or without idle
/// fast-forward.
///
/// Instruction memory is *delta-encoded against the loaded image*: programs
/// cannot self-modify, so a snapshot stores only a fingerprint of the
/// `DecodedImage` and restoring requires the same program to be loaded (the
/// fingerprint is verified). Data memory is stored sparsely as runs of
/// non-zero words, so snapshots of mostly-empty memories stay small.
///
/// The wire format is explicit little-endian with a magic/version header;
/// it contains no floating-point fields and no host pointers, so the same
/// simulation state serializes to the same bytes on every platform —
/// `content_hash()` is stable and golden snapshots can be committed.
///
/// On top of the format, this header provides the one rule for "same
/// state", `snapshots_equal`, and the human-readable `diff_snapshots`. The
/// divergence bisector (sim/event_schedule.h), outcome-mode fault
/// classification and the differential tests all compare through it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/synchronizer.h"
#include "sim/counters.h"
#include "sim/executor.h"
#include "sim/platform.h"

namespace ulpsync::sim {

/// A maximal run of consecutive non-zero data-memory words (the sparse DM
/// encoding of the snapshot format).
struct DmRun {
  std::uint32_t addr = 0;
  std::vector<std::uint16_t> words;

  friend bool operator==(const DmRun&, const DmRun&) = default;
};

/// Complete saved state of one platform (see the file comment). Produced by
/// `Platform::save_snapshot`, consumed by `Platform::restore_snapshot`, and
/// (de)serializable to a stable binary image.
struct Snapshot {
  /// Format version written by `serialize`; `deserialize` rejects others.
  static constexpr std::uint32_t kFormatVersion = 1;

  PlatformConfig config;
  std::uint64_t im_fingerprint = 0;  ///< fingerprint of the loaded image
  std::vector<CoreSnapshot> cores;  ///< the platform's per-core state
  std::vector<PolicyGroupSnapshot> policy_groups;  ///< one per DM bank
  unsigned active_policy_groups = 0;
  EventCounters counters;
  core::SynchronizerState sync;
  bool has_pending_stop = false;
  RunResult pending_stop;  ///< valid when `has_pending_stop`
  bool was_lockstep = true;
  /// Round-robin arbitration state as the raw per-tick accumulator
  /// (`cycles mod 2^32`) — the historical wire encoding. The platform keeps
  /// the pointer normalized modulo `num_cores` internally and re-derives it
  /// on restore, so the bytes stay stable.
  unsigned rr_pointer = 0;
  std::uint64_t fast_forwarded_cycles = 0;
  std::vector<DmRun> dm_runs;  ///< sparse non-zero DM contents
  /// Free-form host words carried with the platform state — e.g. the
  /// harness's RNG stream (`util::Rng::state()`), window counters of a
  /// duty-cycled host loop. Ignored by `Platform::restore_snapshot`.
  std::vector<std::uint64_t> host_words;

  /// Cycle the snapshot was taken at.
  [[nodiscard]] std::uint64_t cycle() const { return counters.cycles; }

  /// The stable binary image (see the file comment for guarantees).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parses a serialized image. Throws std::invalid_argument on a bad
  /// magic, an unsupported version, truncation, or out-of-range fields.
  [[nodiscard]] static Snapshot deserialize(std::span<const std::uint8_t> bytes);
  /// FNV-1a 64-bit hash of `serialize()` — the identity golden-snapshot
  /// tests pin down.
  [[nodiscard]] std::uint64_t content_hash() const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// `config` with its host-only knob (`fast_forward`) set to one fixed
/// value. The knob changes how the host reaches a result, never the
/// result, so two configurations simulate alike exactly when their
/// projections are equal.
[[nodiscard]] PlatformConfig simulated_config(PlatformConfig config);

/// `snapshot` without its host-only state: `simulated_config` of its config
/// and the fast-forwarded-cycle accounting zeroed. Snapshots of two
/// behaviorally identical runs (traced or not, fast-forwarded or not) are
/// equal after this; `snapshots_equal` and `normalized_state_hash` both
/// start from it.
[[nodiscard]] Snapshot simulated_state(Snapshot snapshot);

/// Which state `snapshots_equal` compares.
enum class DivergenceScope : std::uint8_t {
  /// All simulated state: everything but the host-only fields
  /// (`simulated_state`) and the image fingerprint.
  kFullState,
  /// Core-visible state: the full scope without the configuration, data
  /// memory and host words. Use this to locate when an injected DM fault
  /// first reaches a core, rather than when it was injected.
  kCoreState,
};

/// True when `a` and `b` agree on the state selected by `scope`: each side
/// is projected by clearing the fields the scope excludes, and the
/// projections are compared whole, so a field added to `Snapshot` is
/// compared unless a scope excludes it. The image fingerprint is excluded
/// in both scopes: the loaded program is an input, not state (restore and
/// replay verify it), so an IM fault shows at its first architectural
/// effect.
[[nodiscard]] bool snapshots_equal(const Snapshot& a, const Snapshot& b,
                                   DivergenceScope scope);

/// Human-readable first differences between two snapshots (cycle, per-core
/// status/PC/registers, counters, synchronizer, DM words), at most
/// `max_items` lines. Empty when the snapshots are identical.
[[nodiscard]] std::string diff_snapshots(const Snapshot& a, const Snapshot& b,
                                         unsigned max_items = 16);

/// Writes `snapshot.serialize()` to `path` through `util::write_file_atomic`,
/// so a killed writer never leaves a torn file. Throws std::runtime_error on
/// an I/O failure.
void write_snapshot_file(const std::string& path, const Snapshot& snapshot);
/// Reads and deserializes a snapshot file. Throws std::runtime_error on an
/// I/O failure and std::invalid_argument on a malformed image.
[[nodiscard]] Snapshot read_snapshot_file(const std::string& path);

}  // namespace ulpsync::sim
