#pragma once

/// Cycle-level model of the paper's multi-core platform (Fig. 1): up to 8
/// TR16 cores, a shared banked instruction memory behind a broadcasting
/// I-Xbar, a shared banked data memory behind a broadcasting D-Xbar, and the
/// hardware synchronizer.
///
/// Timing model (one `tick()` = one clock cycle):
///  * Every non-stalled, non-sleeping core fetches one instruction per
///    cycle. Fetches to the same IM bank at the SAME address are merged into
///    one physical bank access delivered to all requesters (instruction
///    broadcasting, [4]). Fetches to the same bank at DIFFERENT addresses
///    are served one address per cycle; losing cores are stalled and clock
///    gated — this is the IM conflict serialization that destroys the
///    baseline's throughput once cores leave lockstep.
///  * Data accesses are arbitrated per DM bank, one address per bank per
///    cycle, over one 64-bit core mask per bank. Concurrent loads of the
///    same address are broadcast. With the enhanced D-Xbar policy (Section
///    IV), conflicting accesses by cores whose PCs are equal form a
///    "policy group": members are served one address per cycle but retire
///    only when the whole group has been served, so they leave the
///    conflict in lockstep. While the synchronizer's read-modify-write
///    holds a bank, every core waiting on it stalls. The rules are pure
///    functions in sim/crossbar.h.
///  * SINC/SDEC occupy the core for two cycles (the synchronizer's merged
///    read-modify-write); SDEC then puts the core to sleep until the
///    check-out counter reaches zero, at which point every flagged core is
///    woken in the same cycle.
///  * Stalled cores are clock gated; sleeping cores are gated more deeply.
///    The event counters distinguish all of these states for the power
///    model.
///
/// (A worked walkthrough of these rules, including a 2-core IM-conflict
/// example, is in docs/ARCHITECTURE.md.)
///
/// Hot path (docs/ARCHITECTURE.md has the full story):
///  * Instruction memory is predecoded into a `DecodedImage` at load time,
///    including per-slot straight-line run-length and region-safety tables.
///  * The scheduler is incremental: per-`CoreStatus` population counts and
///    a sorted compact list of active (non-halted, non-trapped,
///    non-sleeping) cores are maintained at every status transition, so
///    `run()`'s exit logic is O(1) and each phase of `tick()` walks only
///    the cores that can participate.
///  * `run()` hands the fetch regime — synchronizer idle, no D-Xbar policy
///    group, every active core Ready — to one region executor. It runs
///    whole arbitrated cycles without the generic phase machinery, and when
///    every active core sits at a fetch boundary on a conflict-free
///    straight-line run it retires whole runs in one batched step. One core
///    mask per program slot holds the active cores at each PC, so a bank's
///    same-PC set and the cycle's lockstep test are one AND or compare.
/// The executor is exact: counters, final state, lockstep metrics and
/// `RunResult` are bit-identical to the naive cycle-by-cycle loop. It
/// disables itself while a per-cycle observer (trace/VCD) is attached, and
/// `PlatformConfig::fast_forward = false` turns it off.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "core/lockstep_metrics.h"
#include "core/synchronizer.h"
#include "isa/isa.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/decoded_image.h"
#include "sim/executor.h"
#include "sim/memory.h"

namespace ulpsync::sim {

struct Snapshot;  // sim/snapshot.h

/// Scheduling state of one core, as seen by the crossbars and the
/// synchronizer.
enum class CoreStatus : std::uint8_t {
  kReady,       ///< will fetch next cycle (or lost fetch arbitration)
  kMemWait,     ///< pending DM access, not yet granted
  kPolicyHold,  ///< served, held by the enhanced D-Xbar until group done
  kSyncWait,    ///< SINC/SDEC waiting for the checkpoint word's lock
  kSyncBusy,    ///< inside the 2-cycle synchronizer read-modify-write
  kSleeping,    ///< checked out / SLEEP; waiting for a wake-up event
  kHalted,      ///< executed HALT
  kTrapped,     ///< raised an architectural fault
};

/// Display name of a core status ("ready", "sleeping", ...).
[[nodiscard]] std::string_view to_string(CoreStatus status);

/// One core's complete runtime state: architectural state plus the
/// platform's scheduling and pipeline microstate. The platform holds one
/// per core and a snapshot carries the same vector, so a field added here
/// is saved, restored and compared without a second edit; only the wire
/// codec (sim/snapshot.cpp) lists the fields, and the snapshot round-trip
/// tests catch a field it misses.
struct CoreSnapshot {
  CoreArchState arch;
  CoreStatus status = CoreStatus::kReady;
  std::uint64_t stall_age = 0;  ///< arbitration age (cycles waiting)
  unsigned bubble_cycles = 0;   ///< clocked pipeline bubble (taken branch)
  unsigned ramp_cycles = 0;     ///< gated wake-up ramp (after sleep)
  // Pending DM access (kMemWait / kPolicyHold).
  bool mem_is_store = false;
  std::uint32_t mem_addr = 0;
  std::uint16_t store_data = 0;
  std::uint8_t load_reg = 0;
  std::uint32_t mem_next_pc = 0;
  bool load_latched = false;  ///< policy-held load already served
  std::uint16_t latched_load = 0;
  // Pending sync request (kSyncWait / kSyncBusy).
  bool sync_is_checkout = false;
  std::uint32_t sync_addr = 0;
  std::uint32_t sync_next_pc = 0;

  friend bool operator==(const CoreSnapshot&, const CoreSnapshot&) = default;
};

/// One DM bank's enhanced D-Xbar policy group, as the platform holds it
/// (one per bank) and a snapshot carries it. Masks carry one bit per core;
/// on the snapshot wire they serialize as 16 bits on platforms of up to 16
/// cores (the historical format, kept byte-stable) and as 64 bits on wider
/// platforms.
struct PolicyGroupSnapshot {
  bool active = false;
  std::uint32_t pc = 0;              ///< the members' shared PC
  std::uint64_t member_mask = 0;     ///< every core of the group
  std::uint64_t unserved_mask = 0;   ///< members still waiting (kMemWait)

  friend bool operator==(const PolicyGroupSnapshot&,
                         const PolicyGroupSnapshot&) = default;
};

/// Why and when `Platform::run` stopped.
struct RunResult {
  /// Final platform state the run stopped in.
  enum class Status : std::uint8_t {
    kAllHalted,  ///< every core executed HALT
    kMaxCycles,  ///< cycle budget exhausted
    /// Every live core is asleep and no synchronizer wake-up is in flight.
    /// This is a deadlock unless the host delivers an external interrupt
    /// (`Platform::interrupt_all`) — the duty-cycled streaming mode.
    kAllAsleep,
    kTrap,       ///< a core raised an architectural fault
  };
  Status status = Status::kAllHalted;
  std::uint64_t cycles = 0;
  // Valid when status == kTrap:
  unsigned trap_core = 0;
  TrapKind trap = TrapKind::kNone;
  std::uint32_t trap_pc = 0;

  /// True when the run finished with every core halted.
  [[nodiscard]] bool ok() const { return status == Status::kAllHalted; }
  /// Human-readable summary ("all halted after 123 cycles").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Host-event sink: observes every *external* event delivered to the
/// platform. The four callbacks mirror the complete host-facing input
/// surface — `dm_write`, `dm_write_block`, `interrupt`, `interrupt_all` —
/// so a sink sees the entire input stream of a run beyond the loaded
/// program. `sim/event_schedule.h` records these for bit-exact replay.
/// Sinks are pure observers: they fire before the event takes effect and
/// must not re-enter the platform.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// One host DM word write (`Platform::dm_write`) delivered at `cycle`.
  virtual void on_dm_write(std::uint64_t cycle, std::uint32_t addr,
                           std::uint16_t value) = 0;
  /// A contiguous host DM block write (`Platform::dm_write_block`).
  virtual void on_dm_write_block(std::uint64_t cycle, std::uint32_t addr,
                                 std::span<const std::uint16_t> words) = 0;
  /// A single-core wake-up event (`Platform::interrupt`).
  virtual void on_interrupt(std::uint64_t cycle, unsigned core) = 0;
  /// A broadcast wake-up event (`Platform::interrupt_all`).
  virtual void on_interrupt_all(std::uint64_t cycle) = 0;
};

/// The simulated platform: cores, banked IM/DM, crossbars, synchronizer.
class Platform {
 public:
  /// Throws std::invalid_argument when `config.validate()` fails (core
  /// count out of range, synchronizer on a >8-core platform, more than
  /// `kMaxImBanks` IM banks, degenerate memory geometry).
  explicit Platform(const PlatformConfig& config);

  /// Loads a program image into instruction memory and resets all cores to
  /// the program origin. Data memory is left untouched (the host preloads
  /// inputs via `dm_write`). Throws std::invalid_argument on a program that
  /// does not fit the IM.
  void load_program(const assembler::Program& program);

  /// Loads an *encoded* program image (e.g. `assembler::Program::image` or
  /// a binary produced by an external toolchain), predecoding it once at
  /// load time. Throws std::invalid_argument on an undecodable word or an
  /// image that does not fit.
  void load_image(std::uint32_t origin, std::span<const std::uint32_t> image);

  /// Resets cores (registers, flags, PC to program origin, status Ready)
  /// and counters. Data memory content is preserved unless `clear_dm`.
  void reset(bool clear_dm = false);

  /// Runs until all cores halt, a trap/deadlock occurs, or `max_cycles`
  /// elapse. The result says which; dropping it silently loses trap and
  /// deadlock diagnoses.
  [[nodiscard]] RunResult run(std::uint64_t max_cycles);

  /// Advances exactly one clock cycle (for fine-grained tests).
  void tick();

  /// External wake-up event (interrupt line of one core): a sleeping core
  /// resumes at the instruction after its SLEEP/SDEC. No effect on cores
  /// that are not sleeping. This is how a sample-ready timer or radio event
  /// re-starts a duty-cycled platform.
  void interrupt(unsigned core);
  /// Broadcast wake-up: interrupts every sleeping core in the same cycle,
  /// so the group resumes in lockstep.
  void interrupt_all();

  // --- host access ---

  /// Reads one DM word.
  [[nodiscard]] std::uint16_t dm_read(std::uint32_t addr) const;
  /// Writes one DM word.
  void dm_write(std::uint32_t addr, std::uint16_t value);
  /// Writes a block of consecutive DM words starting at `addr`.
  void dm_write_block(std::uint32_t addr, std::span<const std::uint16_t> words);
  /// Reads `count` consecutive DM words starting at `addr`.
  [[nodiscard]] std::vector<std::uint16_t> dm_read_block(std::uint32_t addr,
                                                         std::size_t count) const;

  // --- introspection ---

  /// The configuration the platform was built with.
  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  /// Event counters accumulated since the last `reset`. (Per-core sleep
  /// attribution is maintained lazily — O(1) per cycle instead of
  /// O(sleeping cores) — and settled here, so the returned counters are
  /// always exact.)
  [[nodiscard]] const EventCounters& counters() const {
    flush_sleep_accounting();
    return counters_;
  }
  /// Synchronizer statistics accumulated since the last `reset`.
  [[nodiscard]] const core::SynchronizerStats& sync_stats() const;
  /// Scheduling status of one core. (Inline: per-cycle observers poll this
  /// for every core.)
  [[nodiscard]] CoreStatus core_status(unsigned core) const {
    return cores_[core].status;
  }
  /// Current PC of one core (instruction slots).
  [[nodiscard]] std::uint32_t core_pc(unsigned core) const {
    return cores_[core].arch.pc;
  }
  /// Architectural register value of one core (r0 reads as zero).
  [[nodiscard]] std::uint16_t core_reg(unsigned core, unsigned reg) const {
    return cores_[core].arch.reg(reg);
  }
  /// True when every core has executed HALT. O(1).
  [[nodiscard]] bool all_halted() const {
    return status_counts_[static_cast<unsigned>(CoreStatus::kHalted)] ==
           cores_.size();
  }
  /// Cycles the region executor ran in which no core fetched — idle
  /// bubble/ramp cycles and the bubbles of straight-line steps — since the
  /// last `reset` (a subset of `counters().cycles`; 0 when the executor is
  /// off or an observer is attached). Snapshots carry it.
  [[nodiscard]] std::uint64_t fast_forwarded_cycles() const {
    return fast_forwarded_cycles_;
  }
  /// Cycles the region executor retired in straight-line steps since the
  /// last `reset` or `restore_snapshot` (a subset of `counters().cycles`;
  /// their bubble cycles also count in `fast_forwarded_cycles()`).
  [[nodiscard]] std::uint64_t burst_cycles() const { return burst_cycles_; }
  /// Arbitrated cycles with at least one fetcher that the region executor
  /// ran since the last `reset` or `restore_snapshot` (a subset of
  /// `counters().cycles`, disjoint from the other two counters).
  [[nodiscard]] std::uint64_t fetch_region_cycles() const {
    return fetch_region_cycles_;
  }
  /// `last_policy_latch_retired(core)` when no policy-group broadcast has
  /// latched a load into `core` since the last `reset`/`restore_snapshot`.
  static constexpr std::uint64_t kNoPolicyLatch = ~std::uint64_t{0};
  /// Retirement ordinal (0-based, == `counters().per_core_retired[core]` at
  /// latch time) of the last load whose value reached `core` through the
  /// policy-group broadcast path — the only path that updates the core's
  /// `latched_load` snapshot microstate. Host-side accounting for external
  /// emulators tracking that microstate; never part of simulated state or
  /// the snapshot wire format.
  [[nodiscard]] std::uint64_t last_policy_latch_retired(unsigned core) const {
    return last_policy_latch_retired_[core];
  }

  /// Per-cycle observer invoked at the end of every tick (tracing, tests).
  /// While an observer is attached, the region executor is suppressed so
  /// the observer sees every cycle.
  void set_observer(std::function<void(const Platform&)> observer) {
    observer_ = std::move(observer);
  }

  /// Attaches a host-event sink notified of every external event (host DM
  /// writes and wake-ups) before it takes effect. Pure observation: the
  /// simulation is bit-identical with or without a sink. Pass nullptr to
  /// detach; the sink must outlive every subsequent event.
  void set_event_sink(EventSink* sink) { event_sink_ = sink; }

  /// Fingerprint of the loaded program image (FNV-1a 64 over the encoded
  /// words; see DecodedImage::fingerprint). Snapshots and recorded event
  /// schedules both verify it before restore/replay.
  [[nodiscard]] std::uint64_t image_fingerprint() const {
    return im_.fingerprint();
  }

  /// Attaches a lockstep-metrics sink the platform keeps up to date,
  /// bit-identical to a per-cycle observer's accumulation (which the sink,
  /// unlike an observer, does not suppress). A naive tick observes in one
  /// pass over the active cores. The region executor decides each cycle
  /// with one compare of its per-slot core masks and adds its cycles to
  /// the sink once per region; a straight-line step adds its cycles in one
  /// add. Pass nullptr to detach; the sink must outlive every subsequent
  /// tick.
  void set_lockstep_sink(core::LockstepMetrics* sink) { lockstep_sink_ = sink; }

  // --- deterministic snapshots (sim/snapshot.h) ---

  /// Captures the complete simulation state between ticks. Resuming a
  /// restored snapshot is bit-identical to never having stopped (counters,
  /// traces, VCD, region-executor behavior). Defined in snapshot.cpp.
  [[nodiscard]] Snapshot save_snapshot() const;
  /// Restores state captured by `save_snapshot`. The platform must have the
  /// same configuration (ignoring the host-side `fast_forward` knob) and
  /// the same program loaded (verified by image fingerprint); throws
  /// std::invalid_argument otherwise. The attached observer is kept.
  void restore_snapshot(const Snapshot& snapshot);

 private:
  class DmPort final : public core::DataMemoryPort {
   public:
    explicit DmPort(BankedMemory& dm) : dm_(dm) {}
    std::uint16_t read_word(std::uint32_t addr) override { return dm_.read(addr); }
    void write_word(std::uint32_t addr, std::uint16_t value) override {
      dm_.write(addr, value);
    }
    [[nodiscard]] unsigned bank_of(std::uint32_t addr) const override {
      return dm_.bank_of(addr);
    }

   private:
    BankedMemory& dm_;
  };

  /// True for statuses kept in the compact active-core list: the core can
  /// still interact with the crossbars/synchronizer this cycle. Halted,
  /// trapped and sleeping cores are inert until an external event.
  [[nodiscard]] static constexpr bool is_active_status(CoreStatus status) {
    return status != CoreStatus::kHalted && status != CoreStatus::kTrapped &&
           status != CoreStatus::kSleeping;
  }
  static constexpr unsigned kNumStatuses = 8;

  /// The single gateway for core status transitions: updates the
  /// per-status population counts, the sorted active-core list, and the
  /// lazy per-core sleep attribution (see `flush_sleep_accounting`).
  void set_status(unsigned core, CoreStatus next);
  /// Recomputes counts and the active list from the statuses (reset,
  /// snapshot restore).
  void rebuild_schedule_state();
  /// Marks a core clocked this cycle (per-core activity accounting).
  void mark_active(unsigned core) {
    if (!active_this_cycle_[core]) {
      active_this_cycle_[core] = 1;
      touched_cores_.push_back(core);
    }
  }
  /// Settles the lazily attributed per-core sleep cycles into
  /// `counters_.per_core_sleep` (aggregate sleep is always exact). Cheap
  /// when nothing is pending; called from every external observation point.
  void flush_sleep_accounting() const;
  /// Adds `cycles` observed cycles to the attached sink, and to its
  /// full-lockstep cycles when `full` (no-op without a sink).
  void accumulate_lockstep(std::uint64_t cycles, bool full);
  /// Per-tick lockstep observation, one pass over the active list: full
  /// lockstep when at least two cores are live and all of them are ready
  /// at one PC (no-op without a sink).
  void observe_lockstep_tick();
  /// Installs a loaded image: throws std::invalid_argument with `error`
  /// when the load failed, else sizes the per-slot core masks to the
  /// program and resets.
  void finish_load(const std::string& error);

  /// Wake-up logic shared by `interrupt` and `interrupt_all` (which must
  /// notify the event sink once, as a broadcast, not per core).
  void wake_core(unsigned core);

  void trap(unsigned core, TrapKind kind);
  void retire(unsigned core, std::uint32_t next_pc);
  void retire_mem(unsigned core);
  void grant_load(unsigned core, std::uint16_t value);

  void phase_sync_writeback();
  void phase_fetch_and_execute();
  void phase_sync_submit();
  /// The D-Xbar phase: collects the kMemWait cores into per-bank masks and
  /// serves every bank they occupy (`serve_dm_bank`), leaving the per-bank
  /// scratch all zero.
  void phase_dxbar();
  /// One DM bank's D-Xbar cycle for `requesters` (nonzero): with the bank
  /// locked by the synchronizer's read-modify-write every waiter stalls;
  /// with a policy group in flight its next address is served and the
  /// other requesters stall; otherwise the `access_served` cores are served
  /// and the rest stall, or on a conflict with the enhanced policy a
  /// `pc_group` forms and every requester waits.
  void serve_dm_bank(unsigned bank, std::uint64_t requesters, int locked_bank);
  /// `waiters` lose this cycle at the D-Xbar: each counts a memory stall
  /// cycle and ages one cycle. The one place a D-Xbar waiter ages.
  void stall_dm(std::uint64_t waiters);

  // Rules `tick()` and the region executor share, one definition each.

  /// One IM bank's fetch cycle: serves the bank's fetchers `requesters`
  /// (a nonzero core mask; `at_pc(core)` holds every requester at `core`'s
  /// PC) by the I-Xbar rule of sim/crossbar.h, zeroes the served cores'
  /// stall ages, ages the losers and counts the bank access. Returns the
  /// served cores.
  template <typename AtPc>
  std::uint64_t serve_fetch_bank(std::uint64_t requesters, AtPc at_pc);
  /// One DM bank access for `served` (a nonzero mask `access_served`
  /// returned: one store, or loads of one address): counts it with its
  /// grants and broadcast, and writes the store or reads the word. Returns
  /// the word read (0 for a store). The D-Xbar's plain and policy-group
  /// services and the region executor's inline service all access a bank
  /// here.
  std::uint16_t access_dm_bank(std::uint64_t served);
  /// The fetch-cycle lockstep/divergence update: `fetchers` of `eligible`
  /// active cores fetched; `same_pc` (they share one PC) matters only when
  /// `fetchers == eligible`.
  void count_fetch_cycle(unsigned fetchers, bool same_pc, unsigned eligible);
  /// End-of-cycle settlement: aggregate sleep from the population count,
  /// per-core activity from the touched list.
  void settle_cycle();

  /// The region executor. Entered when the synchronizer is idle, no policy
  /// group is in flight, every active core is Ready and every active PC is
  /// in the program; runs until that regime breaks, a core's PC leaves the
  /// program (the region ends after that cycle), a core is about to fetch
  /// a slot that is not `region_safe` (sync, sleep, halt, a CSR access that
  /// may trap: `tick()` handles those), or `max_cycles` elapse. Each
  /// iteration is a straight-line step when one applies, else one
  /// arbitrated cycle with exact I-Xbar arbitration and inline service of
  /// bank-disjoint loads/stores (a cycle with no fetcher counts bubbles
  /// and ramps down). Returns the cycles consumed (0 = not eligible).
  std::uint64_t run_region(std::uint64_t max_cycles);
  /// The executor's straight-line step: when every active core is at a
  /// fetch boundary with zero stall age on a straight-line run, and the
  /// distinct fetch PCs hit pairwise-distinct IM banks (a shared PC
  /// broadcasts and trivially qualifies), retires up to
  /// `max_cycles / base_cpi` instructions per core in a tight loop and
  /// batch-updates counters and lockstep metrics exactly as the naive
  /// ticks would have. Returns the cycles consumed (0 = not eligible).
  std::uint64_t straight_step(std::uint64_t max_cycles);

  PlatformConfig config_;
  DecodedImage im_;
  BankedMemory dm_;
  DmPort dm_port_;
  core::Synchronizer synchronizer_;
  std::vector<CoreSnapshot> cores_;
  std::vector<PolicyGroupSnapshot> policy_groups_;  // one per DM bank
  unsigned active_policy_groups_ = 0;  // count of `active` entries above
  mutable EventCounters counters_;  // mutable: lazy per-core sleep settlement
  std::function<void(const Platform&)> observer_;
  core::LockstepMetrics* lockstep_sink_ = nullptr;
  EventSink* event_sink_ = nullptr;

  std::optional<RunResult> pending_stop_;
  bool was_lockstep_ = true;
  /// Round-robin arbitration pointer, kept normalized to [0, num_cores) at
  /// every update so batched straight-line steps can never drift
  /// semantically from the per-tick increment. Snapshots store the
  /// equivalent raw accumulator (== cycles mod 2^32) for wire-format
  /// stability.
  unsigned rr_pointer_ = 0;
  std::uint64_t fast_forwarded_cycles_ = 0;
  std::uint64_t burst_cycles_ = 0;
  std::uint64_t fetch_region_cycles_ = 0;
  std::vector<std::uint64_t> last_policy_latch_retired_;  ///< see accessor

  // Incrementally maintained scheduling state (see set_status).
  std::array<std::uint32_t, kNumStatuses> status_counts_{};
  std::vector<unsigned> active_cores_;  ///< sorted; is_active_status holds
  /// First cycle index whose end-of-tick sleep accounting has not yet been
  /// credited to `per_core_sleep` of a currently sleeping core.
  mutable std::array<std::uint64_t, EventCounters::kMaxCores>
      sleep_pending_from_{};
  bool in_tick_ = false;  ///< between tick start and end-of-tick accounting

  // Per-tick scratch (members to avoid reallocation).
  std::vector<unsigned> fetch_winners_;
  std::vector<unsigned> touched_cores_;  ///< cores with active_this_cycle_
  std::array<std::uint8_t, EventCounters::kMaxCores> active_this_cycle_{};
  /// The D-Xbar's requesters, one core mask per DM bank (DM banks are not
  /// bounded by 64), and the banks with a nonzero mask. Every mask is zero
  /// and the list empty between uses.
  std::vector<std::uint64_t> dm_bank_requesters_;
  std::vector<unsigned> dm_banks_requested_;
  /// The region executor's same-PC sets: one core mask per slot of the
  /// program range, holding the active cores at that PC. Sized at load;
  /// all zero whenever `run_region` is not on the stack. Not simulated
  /// state, so never in a snapshot.
  std::vector<std::uint64_t> pc_cores_;
};

}  // namespace ulpsync::sim
