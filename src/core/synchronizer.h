#pragma once

/// The paper's hardware synchronizer (Section IV-A).
///
/// One data-memory word per synchronization point stores the checkpoint
/// status: per-core identity flags in bits [7:0] and the in-region core
/// counter in bits [11:8]. A check-in (SINC) sets the requesting core's flag
/// and increments the counter; a check-out (SDEC) decrements the counter and
/// puts the core to sleep. When the counter returns to zero, every core
/// whose identity flag is set is woken in the same cycle and the word is
/// cleared — the group resumes execution in lockstep.
///
/// Requests arriving in the same cycle for the same word are *merged* into a
/// single two-cycle read-modify-write, exactly like the paper's merged
/// check-in/check-out. While an RMW is in flight the word's bank is locked
/// (the core-side `lock` output of the ISE): later requests and ordinary
/// data accesses to that bank wait, which serializes non-simultaneous
/// check-ins/check-outs.
///
/// The synchronizer is deliberately unaware of the rest of the platform: it
/// reads and writes data memory through the `DataMemoryPort` interface so
/// it can be unit-tested in isolation and embedded into the `sim::Platform`.

#include <cstdint>
#include <vector>

namespace ulpsync::core {

/// Minimal data-memory access interface the synchronizer needs.
class DataMemoryPort {
 public:
  virtual ~DataMemoryPort() = default;
  /// Reads the DM word at `addr`.
  [[nodiscard]] virtual std::uint16_t read_word(std::uint32_t addr) = 0;
  /// Writes `value` to the DM word at `addr`.
  virtual void write_word(std::uint32_t addr, std::uint16_t value) = 0;
  /// Bank index of an address (for the bank-lock model).
  [[nodiscard]] virtual unsigned bank_of(std::uint32_t addr) const = 0;
};

/// Checkpoint word layout helpers (bits [7:0] flags, [11:8] counter).
struct CheckpointWord {
  std::uint8_t flags = 0;
  std::uint8_t counter = 0;

  /// Splits a DM word into its flags and counter fields.
  [[nodiscard]] static CheckpointWord unpack(std::uint16_t word) {
    return {static_cast<std::uint8_t>(word & 0xFF),
            static_cast<std::uint8_t>((word >> 8) & 0xF)};
  }
  /// The DM word holding these fields (the counter keeps 4 bits).
  [[nodiscard]] std::uint16_t pack() const {
    return static_cast<std::uint16_t>(flags | ((counter & 0xF) << 8));
  }
};

/// Aggregate statistics used by the power model and the access-count
/// experiments (Table I, E6).
struct SynchronizerStats {
  std::uint64_t rmw_ops = 0;           ///< merged read-modify-writes
  std::uint64_t dm_accesses = 0;       ///< 2 per RMW (read + write)
  std::uint64_t checkins = 0;          ///< individual SINC requests served
  std::uint64_t checkouts = 0;         ///< individual SDEC requests served
  std::uint64_t merged_requests = 0;   ///< requests that shared an RMW
  std::uint64_t wakeup_events = 0;     ///< counter-reached-zero events
  std::uint64_t wakeups_delivered = 0; ///< cores woken in total
  std::uint64_t max_merge_width = 0;   ///< widest single merge observed

  friend bool operator==(const SynchronizerStats&,
                         const SynchronizerStats&) = default;
};

/// Complete saved state of a synchronizer between cycles: the statistics
/// plus the RMW in flight (a snapshot can land between the read and write
/// phases of a merged check-in/check-out). Produced by
/// `Synchronizer::save_state` for the platform snapshot subsystem.
struct SynchronizerState {
  SynchronizerStats stats;
  bool inflight_active = false;
  std::uint32_t inflight_addr = 0;
  std::uint16_t inflight_checkin_mask = 0;
  std::uint16_t inflight_checkout_mask = 0;

  friend bool operator==(const SynchronizerState&,
                         const SynchronizerState&) = default;
};

/// The synchronizer itself (see the file comment): merges the cycle's
/// check-ins/check-outs per checkpoint word into one two-cycle
/// read-modify-write and reports completions and wake-ups.
class Synchronizer {
 public:
  /// Architectural ceiling: the checkpoint word has 8 identity flags, so a
  /// synchronizer serves at most 8 cores regardless of platform width.
  static constexpr unsigned kMaxCores = 8;

  /// `num_cores` must be <= kMaxCores.
  Synchronizer(DataMemoryPort& dm, unsigned num_cores);

  /// Submits a check-in/check-out executed by `core` this cycle, targeting
  /// absolute DM address `addr` (Rsync + literal). Returns true if the
  /// request was accepted into the RMW starting this cycle; false if the
  /// word's bank is locked by an in-flight RMW — the core must stall and
  /// resubmit next cycle.
  ///
  /// Call `begin_cycle()` before any submissions of a given cycle and
  /// `finish_cycle()` after the last one.
  [[nodiscard]] bool submit(unsigned core, std::uint32_t addr, bool is_checkout);

  /// Result of one synchronizer cycle.
  struct CycleEvents {
    std::uint16_t completed_checkin_mask = 0;  ///< SINCs retiring this cycle
    std::uint16_t completed_checkout_mask = 0; ///< SDECs retiring this cycle
    std::uint16_t wake_mask = 0;               ///< cores to wake this cycle
  };

  /// Advances the in-flight RMW (if any) to its write phase, performing the
  /// DM write and producing completion/wake-up events. Must be called once
  /// per cycle, before this cycle's `submit`s. Dropping the returned events
  /// loses wake-ups, so the result must be consumed.
  [[nodiscard]] CycleEvents begin_cycle();

  /// Performs the DM read phase for requests accepted this cycle.
  void finish_cycle();

  /// Bank currently locked by an in-flight RMW, or -1. Valid between
  /// begin_cycle() and the next begin_cycle(); the platform must exclude
  /// this bank from ordinary D-Xbar grants.
  [[nodiscard]] int locked_bank() const;

  /// True when an RMW is in flight (used for deadlock detection).
  [[nodiscard]] bool busy() const { return inflight_.active; }

  /// Statistics accumulated since construction or `reset_stats`.
  [[nodiscard]] const SynchronizerStats& stats() const { return stats_; }
  /// Zeroes the statistics; an RMW in flight is kept.
  void reset_stats() { stats_ = {}; }

  /// Between-cycle state capture for the snapshot subsystem. Must not be
  /// called between `begin_cycle()` and `finish_cycle()`.
  [[nodiscard]] SynchronizerState save_state() const;
  /// Restores state captured by `save_state` (same between-cycle contract).
  void restore_state(const SynchronizerState& state);

 private:
  struct Inflight {
    bool active = false;
    std::uint32_t addr = 0;
    std::uint16_t checkin_mask = 0;
    std::uint16_t checkout_mask = 0;
  };

  DataMemoryPort& dm_;
  unsigned num_cores_;
  SynchronizerStats stats_;
  Inflight inflight_;   ///< RMW in read phase this cycle; writes next cycle
  bool accepting_ = false;
};

}  // namespace ulpsync::core
