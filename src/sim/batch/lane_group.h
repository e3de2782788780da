#pragma once

/// Structure-of-arrays state for batched many-platform simulation.
///
/// A `LaneGroup` holds N independent *lanes* — platform instances that run
/// the same program on the same configuration and differ only in data (in
/// practice: patients of a cohort, whose generator-derived samples differ).
/// Per-lane state is packed lane-major — architectural core state in one
/// contiguous array, each lane's data memory as one flat span of a shared
/// buffer — so stepping many lanes through the same instruction sequence
/// walks memory linearly instead of chasing N heap-allocated platforms.
///
/// The group emulates *windows* of a duty-cycled workload functionally:
/// from an all-asleep boundary, every core of a lane executes through
/// `sim::execute` (the platform's own architectural executor) until it
/// sleeps again, recording its retirement trace — the sequence of
/// (pc, memory address) pairs. Platform timing is a deterministic function
/// of those traces (data *values* never influence arbitration, fetch or
/// wake timing), so a lane whose traces equal a reference lane's is
/// cycle-identical to it: counters, synchronizer state and lockstep
/// metrics can be taken from one real cycle-level `Platform` driving the
/// reference lane. A lane whose trace diverges is rolled back to the
/// window boundary (per-window undo log) and falls back to scalar
/// simulation — bit-exactly, because the boundary state plus the reference
/// platform's timing state materializes into a full `sim::Snapshot`.
///
/// This layer is scenario-agnostic: grouping, divergence policy, records
/// and checkpoint rings live in scenario/batch.h.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/decoded_image.h"
#include "sim/executor.h"
#include "sim/snapshot.h"

namespace ulpsync::sim::batch {

/// One retired instruction of an emulated window: its pc plus the data
/// memory word it touched (`kNoMem` for non-memory instructions, write
/// accesses tagged with `kWriteBit`). Two lanes with equal per-core event
/// sequences retire identically as far as platform timing is concerned.
struct TraceEvent {
  static constexpr std::uint32_t kNoMem = 0xFFFF'FFFFu;
  static constexpr std::uint32_t kWriteBit = 0x8000'0000u;

  std::uint32_t pc = 0;
  std::uint32_t mem = kNoMem;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-core retirement traces of one emulated window.
using WindowTraces = std::vector<std::vector<TraceEvent>>;

/// Follower-side classification of one reference-trace op, fixed at
/// compile time by (opcode, immediate) — never by data. A follower's
/// dynamic path equals the reference's exactly when every control transfer
/// lands on the reference's next pc and every memory access hits the
/// reference's address; straight-line ops between those checkpoints match
/// by construction (one shared image, sequential pcs), so they carry no
/// per-op check at all.
enum class MicroKind : std::uint8_t {
  kAlu,        ///< pure register/flag effect; control falls through
  kControl,    ///< branch/jal/jr: computed next pc must equal `operand`
  kLoad,       ///< DM read: computed address must equal `operand`
  kStore,      ///< DM write: computed address must equal `operand`
  kSleepEnd,   ///< terminal SLEEP (always the core's last op)
  kHaltEnd,    ///< terminal HALT (always the core's last op)
  kImpossible, ///< sync/trap ops: a completed reference cannot contain them
};

/// One pre-decoded step of a reference window. Compiled once per window
/// from the leader's traces; every follower then executes the dense stream
/// instead of re-fetching instructions and re-comparing trace events.
struct WindowOp {
  isa::Instruction instr;
  std::uint32_t pc = 0;       ///< the op's instruction slot
  std::uint32_t operand = 0;  ///< expected next pc (control) or DM address
  MicroKind kind = MicroKind::kAlu;
};

/// Per-core pre-decoded window, aligned with `WindowTraces`.
using WindowProgram = std::vector<std::vector<WindowOp>>;

/// Compiles recorded reference traces into the dense op stream
/// `LaneGroup::run_window_ops` executes, reusing `ops`' storage (one
/// program per group serves every window). Every traced pc was validated
/// against `image` while recording, so this is a straight decode pass.
void compile_window(const DecodedImage& image, const WindowTraces& traces,
                    WindowProgram& ops);

/// How one lane's window emulation ended.
enum class LaneWindowOutcome : std::uint8_t {
  kCompleted,  ///< every live core retired SLEEP (or HALT) — boundary reached
  kDiverged,   ///< the lane's trace left the reference trace (compare mode)
  kBail,       ///< emulation cannot model this window (sync/trap/budget/...)
};

/// Outcome plus a human-readable reason for `kBail`.
struct LaneWindowResult {
  LaneWindowOutcome outcome = LaneWindowOutcome::kCompleted;
  std::string detail;
};

/// SoA state of N lanes (see the file comment).
class LaneGroup {
 public:
  /// A group of `lanes` instances of `cores` cores over `dm_words` words of
  /// data memory each.
  LaneGroup(unsigned lanes, unsigned cores, std::uint32_t dm_words);

  [[nodiscard]] unsigned lanes() const { return lanes_; }
  [[nodiscard]] unsigned cores() const { return cores_; }
  [[nodiscard]] std::uint32_t dm_words() const { return dm_words_; }

  [[nodiscard]] CoreArchState& arch(unsigned lane, unsigned core) {
    return arch_[static_cast<std::size_t>(lane) * cores_ + core];
  }
  [[nodiscard]] const CoreArchState& arch(unsigned lane, unsigned core) const {
    return arch_[static_cast<std::size_t>(lane) * cores_ + core];
  }
  [[nodiscard]] std::uint16_t* dm(unsigned lane) {
    return dm_.data() + static_cast<std::size_t>(lane) * dm_words_;
  }
  [[nodiscard]] const std::uint16_t* dm(unsigned lane) const {
    return dm_.data() + static_cast<std::size_t>(lane) * dm_words_;
  }

  /// Replicates an all-asleep boundary snapshot — architectural state, the
  /// value-dependent memory microstate, data memory — into every lane. The
  /// snapshot must come from a platform with matching geometry.
  void init_from(const Snapshot& boundary);

  /// Opens a window on `lane`: backs up its architectural state and arms
  /// the DM undo log so `rollback` can restore the boundary state exactly.
  void begin_window(unsigned lane);

  /// Deposits a contiguous run of host words into `lane`'s DM
  /// (undo-logged, so `rollback` restores the words it overwrote). The
  /// lane-side `scenario::DmWriteBlockFn`: one call per channel run beats a
  /// closure dispatch per word across hundreds of lanes.
  void deposit_block(unsigned lane, std::uint32_t addr,
                     std::span<const std::uint16_t> words);

  /// Restores `lane` to the state captured by the last `begin_window`.
  void rollback(unsigned lane);

  /// Emulates one window of the reference lane: every live core runs from
  /// its post-sleep pc until it sleeps again, at most `budget` instructions
  /// per core, appending every core's trace to `*record`. A bailed lane is
  /// left mid-window — `rollback` it before using its state.
  [[nodiscard]] LaneWindowResult run_window(unsigned lane,
                                            const DecodedImage& image,
                                            WindowTraces& record,
                                            std::uint64_t budget);

  /// Emulates one window of many follower lanes against a compiled
  /// reference window, *op-major*: each op of the stream executes across
  /// every still-matching lane before the next op is fetched, so the
  /// stream walk, the decode and the dispatch are paid once per group
  /// instead of once per lane (follower core states live in a contiguous
  /// scratch array for the duration of a core's stream). A lane reports
  /// `kDiverged` at its first pc or memory-address departure from the
  /// reference and stops executing; equal pcs imply equal instructions
  /// (one shared image), so lanes that complete retired exactly the
  /// reference's event sequence — the property platform timing keys on.
  /// `outcomes[i]` describes `lanes[i]`; a diverged lane is left
  /// mid-window — `rollback` it before use.
  void run_window_ops(std::span<const unsigned> lanes,
                      const WindowProgram& ops,
                      std::vector<LaneWindowOutcome>& outcomes);

  /// Patches `lane`'s latched-load microstate for one core from the load
  /// events of the window just emulated: the load with window-local
  /// retirement ordinal `event_index` (0-based over the core's retired
  /// instructions this window) becomes the core's `latched_load`. The
  /// ordinal comes from the real platform's policy-latch accounting
  /// (`Platform::last_policy_latch_retired` minus the boundary's retired
  /// count) — the platform only updates the microstate on policy-group
  /// broadcasts, so lanes must not guess from their own loads. Returns
  /// false (lane state untouched) when the ordinal is not a load the lane
  /// retired this window — the lane's path diverged from the reference.
  [[nodiscard]] bool apply_policy_latch(unsigned lane, unsigned core,
                                        std::uint64_t event_index);

  /// Full platform snapshot of `lane` at the current boundary: the
  /// reference platform's boundary snapshot with the lane's architectural
  /// state, value-dependent memory microstate and DM contents patched in.
  /// Valid only at a validated boundary (see `compare_with`).
  [[nodiscard]] Snapshot materialize(unsigned lane,
                                     const Snapshot& boundary) const;

  /// Validates `lane` against a real platform's boundary snapshot: every
  /// core sleeping or halted with no latched load (the patch-safety guard),
  /// architectural state, memory microstate and DM contents equal. Returns
  /// an empty string on success, else the first mismatch.
  [[nodiscard]] std::string compare_with(unsigned lane,
                                         const Snapshot& boundary) const;

  /// Instructions emulated across all lanes since construction.
  [[nodiscard]] std::uint64_t emulated_instructions() const {
    return emulated_instructions_;
  }

 private:
  struct LaneJournal {
    std::vector<std::pair<std::uint32_t, std::uint16_t>> undo;
    /// Pre-images of block deposits (the bulk of a window's DM writes):
    /// `len` words starting at DM `addr`, saved at `offset` in
    /// `block_words`. Deposits precede in-window stores, so rollback
    /// unwinds `undo` first, then these in reverse.
    struct BlockUndo {
      std::uint32_t addr, offset, len;
    };
    std::vector<BlockUndo> block_undo;
    std::vector<std::uint16_t> block_words;
    std::vector<CoreArchState> arch_backup;
    std::vector<std::uint16_t> store_backup;
    std::vector<std::uint16_t> latched_backup;
    std::vector<std::uint8_t> halted_backup;
  };

  [[nodiscard]] std::size_t core_index(unsigned lane, unsigned core) const {
    return static_cast<std::size_t>(lane) * cores_ + core;
  }

  unsigned lanes_;
  unsigned cores_;
  std::uint32_t dm_words_;
  std::vector<CoreArchState> arch_;  ///< lane-major [lane * cores + core]
  std::vector<std::uint16_t> dm_;    ///< lane-major [lane * dm_words + addr]
  // Value-dependent memory microstate the platform keeps per core beyond
  // CoreArchState: the last stored word and the last latched load. Stale
  // once the core sleeps, but part of the snapshot wire format — tracked so
  // a materialized lane's snapshot is byte-equal to a scalar run's.
  std::vector<std::uint16_t> last_store_;    ///< lane-major
  std::vector<std::uint16_t> last_latched_;  ///< lane-major
  std::vector<std::uint8_t> halted_;         ///< lane-major; 1 = core halted
  /// Loads retired in the last emulated window, per lane-major core slot:
  /// (window-local retirement ordinal, loaded value). Scratch consumed by
  /// `apply_policy_latch`; rewritten by every `run_window`.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint16_t>>>
      window_loads_;
  std::vector<LaneJournal> journals_;        ///< per lane

  /// One follower still matching the reference mid-stream: its working
  /// core state plus the per-lane sinks the hot loop writes. Slots live
  /// in `active_` for one core's stream; a diverging slot swap-removes.
  struct ActiveLane {
    CoreArchState state;
    std::uint16_t* mem = nullptr;  ///< the lane's DM
    std::vector<std::pair<std::uint32_t, std::uint16_t>>* undo = nullptr;
    std::vector<std::pair<std::uint64_t, std::uint16_t>>* loads = nullptr;
    std::size_t idx = 0;    ///< lane-major core slot (last_store_/halted_)
    std::uint32_t slot = 0; ///< index into the caller's `lanes` span
  };
  std::vector<ActiveLane> active_;  ///< scratch; capacity reused per window

  std::uint64_t emulated_instructions_ = 0;
};

/// Cross-core conflict check on a window's reference traces: returns empty
/// when every DM word written by a core is untouched by every other core
/// within the window, else a description of the first conflict. Disjoint
/// read/write sets are what make sequential per-core emulation equivalent
/// to the platform's interleaved execution — a window that fails this check
/// must run on the real platform.
[[nodiscard]] std::string check_rw_disjoint(const WindowTraces& traces);

}  // namespace ulpsync::sim::batch
