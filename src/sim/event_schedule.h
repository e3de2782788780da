#pragma once

/// Recorded external-event schedules: the complete input stream of one run.
///
/// A platform run is fully determined by three things — its configuration,
/// the loaded program image, and the stream of *external* events the host
/// delivers (DM preloads, per-window sample deposits, wake-up interrupts).
/// `EventRecorder` captures that stream through the `Platform::EventSink`
/// hook, together with the recorded outcome (final `RunResult`, a
/// normalized final-state hash, and the workload's host-loop words), into
/// an `EventSchedule`: a versioned little-endian wire format with an FNV-1a
/// trailing hash, like snapshots (sim/snapshot.h) and shard bundles
/// (scenario/shard.h).
///
/// Replay, exact or fault-injecting, is one stepper: `ReplayCursor`. It
/// re-delivers a schedule into a freshly prepared platform (same config,
/// same program, inputs NOT loaded — the schedule carries them) in
/// `Platform::run` slices. At cycle C it delivers what is due at C, then
/// runs to the earliest of the next recorded event, the next injected DM
/// flip, the next delayed wake-up and the caller's target. When `run()`
/// stops short of that bound (every core halted, trapped or asleep, or a
/// trap has ended the run), one `tick()` clocks the next cycle. This is
/// bit-identical to ticking every cycle for two reasons: stopping and
/// resuming a run is bit-identical to one uninterrupted run, and nothing
/// external happens strictly between two due cycles. Because the clock
/// never advances while every core sleeps, the recorded delivery cycles
/// are exact replay targets.
///
/// `replay_schedule` is exact replay: a fault-free cursor run to the
/// recorded end, asserting the run reproduces bit-exactly — every slice
/// must reach its recorded event cycle, the final result must match, and
/// the normalized final-state hash must match. Fault trials give the
/// cursor `FaultAction`s (DM bit flips, delayed or dropped wake-ups), and
/// `find_first_divergence_replayed` grows `find_first_divergence` into a
/// fault-localization bisector: clean and faulted cursors advance in
/// lockstep with snapshot checkpoints every `stride` cycles, and on
/// mismatch the last equal checkpoint pair is restored and single-stepped
/// to the first divergent cycle. Image fingerprints are excluded from the
/// comparison so IM-corruption faults (a different loaded image by
/// construction) localize to their first *architectural* effect.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/platform.h"
#include "sim/snapshot.h"

namespace ulpsync::sim {

/// Kind of one recorded external event (see `ExternalEvent`).
enum class EventKind : std::uint8_t {
  kDmWrite = 0,       ///< one host DM word write
  kDmWriteBlock = 1,  ///< contiguous host DM block write
  kInterrupt = 2,     ///< single-core wake-up
  kInterruptAll = 3,  ///< broadcast wake-up
};

/// One external event, delivered at `cycle` (the platform's cycle counter
/// at delivery time). Only the fields of the event's kind are meaningful.
struct ExternalEvent {
  EventKind kind = EventKind::kDmWrite;
  std::uint64_t cycle = 0;
  std::uint32_t addr = 0;            ///< kDmWrite / kDmWriteBlock
  std::uint16_t word = 0;            ///< kDmWrite
  std::uint32_t core = 0;            ///< kInterrupt
  std::vector<std::uint16_t> words;  ///< kDmWriteBlock

  friend bool operator==(const ExternalEvent&, const ExternalEvent&) = default;
};

/// The complete external input stream of one run plus its recorded
/// outcome. Serializes to an explicit little-endian image with a
/// magic/version header and a trailing FNV-1a 64 hash; no floating-point
/// fields and no host pointers, so the same run records to the same bytes
/// on every platform and golden schedules can be committed.
struct EventSchedule {
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Fingerprint of the program image the run executed (verified before
  /// replay, like snapshot restore).
  std::uint64_t im_fingerprint = 0;
  /// Recorded events in delivery order; cycles are non-decreasing.
  std::vector<ExternalEvent> events;
  /// The result the workload's drive loop returned.
  RunResult final_result;
  /// `normalized_state_hash` of the platform's final snapshot. Normalized
  /// so the hash is invariant under host-side knobs (fast-forward/burst
  /// config and accounting, observers attached or not).
  std::uint64_t final_state_hash = 0;
  /// The workload host loop's own state words at the end of the run
  /// (`scenario::WindowedDrive::host_words`); empty for workloads without
  /// a host loop. Replays re-adopt these so verify/report see them.
  std::vector<std::uint64_t> final_host_words;

  /// Serializes to the versioned wire image (magic, version, payload,
  /// trailing FNV-1a 64 hash).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parses a serialized image. Throws std::invalid_argument on a bad
  /// magic, an unsupported version, truncation, a trailing-hash mismatch,
  /// or out-of-range fields.
  [[nodiscard]] static EventSchedule deserialize(
      std::span<const std::uint8_t> bytes);
  /// FNV-1a 64 hash of `serialize()` — the identity golden-schedule tests
  /// pin down.
  [[nodiscard]] std::uint64_t content_hash() const;

  friend bool operator==(const EventSchedule&, const EventSchedule&) = default;
};

/// Content hash of `simulated_state(snapshot)`: invariant under host-side
/// simulation knobs, exactly like `snapshots_equal`. Two behaviorally
/// identical runs — traced or not, fast-forwarded or not — hash equal.
[[nodiscard]] std::uint64_t normalized_state_hash(const Snapshot& snapshot);

/// Records every external event delivered to a platform. Attach after
/// `load_program` and *before* `load_inputs`/driving, so the recorded
/// stream is the complete input of the run (cycle-0 input preloads
/// included). `finish()` seals the schedule with the run's outcome.
class EventRecorder final : public EventSink {
 public:
  /// Registers this recorder as `platform`'s event sink and captures the
  /// image fingerprint. The recorder must outlive the run.
  void attach(Platform& platform);

  /// EventSink: records one host DM word write.
  void on_dm_write(std::uint64_t cycle, std::uint32_t addr,
                   std::uint16_t value) override;
  /// EventSink: records one contiguous host DM block write.
  void on_dm_write_block(std::uint64_t cycle, std::uint32_t addr,
                         std::span<const std::uint16_t> words) override;
  /// EventSink: records one single-core wake-up.
  void on_interrupt(std::uint64_t cycle, unsigned core) override;
  /// EventSink: records one broadcast wake-up.
  void on_interrupt_all(std::uint64_t cycle) override;

  /// Seals and returns the recording: detaches the sink, stores the
  /// drive's final `result` and the workload's `host_words`, and hashes
  /// the platform's final state. Call exactly once, after the run.
  [[nodiscard]] EventSchedule finish(const RunResult& result,
                                     std::span<const std::uint64_t> host_words);

 private:
  Platform* platform_ = nullptr;
  EventSchedule schedule_;
};

/// Outcome of `replay_schedule`.
struct ReplayOutcome {
  /// The reconstructed final result (valid when `error` is empty).
  RunResult result;
  /// True when the replayed final state hashed identical to the recording.
  bool final_state_matches = false;
  /// Empty on a faithful replay; otherwise the first mismatch (an image
  /// fingerprint mismatch, an unordered schedule, an event cycle the
  /// replay could not reach, a final-result difference, or a final-state
  /// hash mismatch).
  std::string error;

  /// True when the replay reproduced the recording bit-exactly.
  [[nodiscard]] bool ok() const { return error.empty() && final_state_matches; }
};

/// One injected fault for campaign replays (see `ReplayCursor`).
///
/// A `kDmFlip` is the general DM-corruption primitive: it XORs a bit
/// pattern into a run of adjacent words. `mask == 0, span == 1` is the
/// classic single-event upset (flip bit `bit` of the word at `addr`);
/// a non-zero `mask` flips several bits of one word (multi-bit upset);
/// `span > 1` repeats the pattern over `span` adjacent words (a
/// spatially-correlated burst — adjacent DM words, or a whole row when
/// `addr` is row-aligned and `span` is the row width). Words beyond the
/// platform's DM size are skipped, never wrapped.
struct FaultAction {
  /// What to inject.
  enum class Kind : std::uint8_t {
    kDmFlip,     ///< XOR a bit pattern into `span` DM words at `cycle`
    kDelayWake,  ///< deliver `core`'s wake-up `delay` cycles late
    kDropWake,   ///< never deliver `core`'s wake-up
  };
  Kind kind = Kind::kDmFlip;
  std::uint64_t cycle = 0;  ///< kDmFlip: injection cycle
  std::uint32_t addr = 0;   ///< kDmFlip: first DM word address
  unsigned bit = 0;         ///< kDmFlip: bit index (0..15) when `mask == 0`
  /// kDmFlip: XOR pattern per word; 0 selects the single bit `bit`.
  std::uint16_t mask = 0;
  /// kDmFlip: number of adjacent words the pattern is XORed into (>= 1).
  std::uint32_t span = 1;
  unsigned core = 0;        ///< kDelayWake/kDropWake: target core
  std::uint64_t delay = 0;  ///< kDelayWake: extra cycles before the wake-up
  /// kDelayWake/kDropWake: index into `EventSchedule::events` of the
  /// interrupt event the fault targets (must be kInterrupt/kInterruptAll).
  std::size_t event_index = 0;

  /// The effective per-word XOR pattern (`mask`, or the single `bit`).
  [[nodiscard]] std::uint16_t word_mask() const {
    return mask != 0 ? mask
                     : static_cast<std::uint16_t>(std::uint16_t{1}
                                                  << (bit & 15u));
  }
};

/// Steps one platform through a recorded schedule in `Platform::run`
/// slices (the slice rule and why it is exact are in the file comment),
/// delivering each event at its recorded cycle and applying injected
/// faults. Exact replay, fault trials and both sides of
/// `find_first_divergence_replayed` all step through it. Events and faults
/// due at cycle C are delivered when the cursor leaves C (before the slice
/// out of C), so a checkpoint taken at C excludes them; `seek` re-arms
/// indices and pending delayed wake-ups consistently after a snapshot
/// restore.
class ReplayCursor {
 public:
  /// `platform` must have the (possibly fault-corrupted) program loaded
  /// and no inputs; both references must outlive the cursor. Throws
  /// std::invalid_argument, naming the cycle, when the schedule's event
  /// cycles are not ordered: an event behind the clock could never be
  /// delivered.
  ReplayCursor(Platform& platform, const EventSchedule& schedule,
               std::span<const FaultAction> faults);

  /// The driven platform.
  [[nodiscard]] Platform& platform() { return *platform_; }
  /// Current cycle of the driven platform.
  [[nodiscard]] std::uint64_t cycle() const {
    return platform_->counters().cycles;
  }
  /// Advances to exactly `target` cycles, delivering due events/faults.
  void advance_to(std::uint64_t target);
  /// Re-arms event/fault delivery state for a platform just restored to a
  /// checkpoint taken at `cycle` by this cursor.
  void seek(std::uint64_t cycle);
  /// True when nothing can change anymore: every core halted or trapped
  /// and no event or fault is still pending.
  [[nodiscard]] bool settled() const;

 private:
  /// Exact replay is a fault-free cursor plus checks on its first short
  /// slice; it also delivers the events due at the recorded end.
  friend ReplayOutcome replay_schedule(Platform& platform,
                                       const EventSchedule& schedule);

  /// A `run()` slice that stopped short of its bound.
  struct ShortSlice {
    std::uint64_t bound = 0;  ///< the cycle the slice was to reach
    RunResult result;         ///< what `run()` returned
  };

  /// Delivers every event and fault due at the current cycle.
  void deliver_due();

  Platform* platform_;
  const EventSchedule* schedule_;
  std::vector<FaultAction> faults_;
  std::size_t next_event_ = 0;
  /// Delayed wake-ups re-scheduled by kDelayWake faults: (cycle, core),
  /// kept sorted by cycle.
  std::vector<std::pair<std::uint64_t, unsigned>> pending_wakes_;
  /// The first slice since construction that stopped short of its bound:
  /// a faithful exact replay has none before the recorded end.
  std::optional<ShortSlice> first_short_;
};

/// Exact replay: runs a fault-free `ReplayCursor` to the recorded end
/// cycle, delivers the events recorded at that cycle itself, and checks
/// the outcome. The platform must have the same program loaded (verified
/// by image fingerprint) and inputs NOT loaded — the schedule carries
/// them. Never throws on divergence or on an unordered schedule —
/// mismatches are reported in the outcome.
[[nodiscard]] ReplayOutcome replay_schedule(Platform& platform,
                                            const EventSchedule& schedule);

/// Result of `find_first_divergence_replayed`.
struct ReplayDivergence {
  bool diverged = false;
  /// First cycle at which the two replayed states differ (valid when
  /// `diverged`).
  std::uint64_t first_divergent_cycle = 0;
  /// `diff_snapshots` of the states at that cycle (valid when `diverged`).
  std::string delta;
  /// The snapshots at the first divergent cycle (valid when `diverged`) —
  /// campaign drivers classify the fault's architectural effect from them.
  Snapshot clean_state;
  Snapshot faulty_state;
};

/// Replay-aware divergence bisection: advances a clean and a faulted
/// replay of the same schedule in lockstep (tick-exact, events delivered
/// at their recorded cycles on both sides), comparing snapshots every
/// `stride` cycles; on mismatch restores the last equal checkpoint pair
/// and single-steps to the first divergent cycle. Image fingerprints are
/// excluded from the comparison (IM faults intentionally load different
/// images). Throws std::invalid_argument when the platforms are not
/// comparable (different config or start cycle).
[[nodiscard]] ReplayDivergence find_first_divergence_replayed(
    ReplayCursor& clean, ReplayCursor& faulty, std::uint64_t max_cycles,
    DivergenceScope scope = DivergenceScope::kCoreState,
    std::uint64_t stride = 1024);

}  // namespace ulpsync::sim
