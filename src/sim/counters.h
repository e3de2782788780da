#pragma once

/// Event counters collected by the platform simulation. Every quantity the
/// power model charges energy for — and every statistic quoted in the
/// paper's evaluation (IM/DM bank accesses, stalls, lockstep residency,
/// Ops/cycle) — is a counter here.

#include <array>
#include <cstdint>

namespace ulpsync::sim {

/// Cycle-accurate event totals of one platform run (see the file comment);
/// reset together with the platform.
struct EventCounters {
  /// Upper bound on cores per platform. The crossbars, counters and
  /// snapshots scale to 64 cores; only the hardware synchronizer is capped
  /// lower (its checkpoint word has 8 identity flags — see
  /// `core::Synchronizer::kMaxCores` and `PlatformConfig::validate`).
  static constexpr unsigned kMaxCores = 64;

  std::uint64_t cycles = 0;

  // --- instruction side ---
  std::uint64_t im_bank_accesses = 0;    ///< physical bank reads (broadcast = 1)
  std::uint64_t im_fetches_delivered = 0;///< instructions delivered to cores
  std::uint64_t im_broadcast_groups = 0; ///< served fetch groups with >1 core
  std::uint64_t fetch_conflict_cycles = 0; ///< bank-cycles with losing fetchers

  // --- data side ---
  std::uint64_t dm_bank_accesses = 0;    ///< D-Xbar accesses (sync RMW
                                         ///< accesses are in SynchronizerStats)
  std::uint64_t dm_requests_granted = 0; ///< core requests completed
  std::uint64_t dm_broadcast_reads = 0;  ///< grants serving >1 core at once
  std::uint64_t dm_conflict_cycles = 0;  ///< bank-cycles with losing requesters
  std::uint64_t policy_hold_events = 0;  ///< enhanced D-Xbar group stalls

  // --- execution ---
  std::uint64_t retired_ops = 0;
  std::uint64_t core_active_cycles = 0;      ///< clocked core-cycles
  std::uint64_t core_fetch_stall_cycles = 0; ///< gated: lost IM arbitration
  std::uint64_t core_mem_stall_cycles = 0;   ///< gated: lost DM arbitration/hold
  std::uint64_t core_sync_stall_cycles = 0;  ///< gated: sync word locked
  std::uint64_t core_sleep_cycles = 0;       ///< sleeping (check-out wait)
  std::uint64_t core_branch_bubble_cycles = 0; ///< clocked: taken-branch bubble
  std::uint64_t core_wakeup_ramp_cycles = 0;   ///< gated: post-wake clock ramp

  // --- lockstep ---
  std::uint64_t lockstep_cycles = 0;  ///< all fetching cores shared one PC
  std::uint64_t fetch_cycles = 0;     ///< cycles with >=1 fetch request
  std::uint64_t divergence_events = 0;///< lockstep -> non-lockstep transitions

  std::array<std::uint64_t, kMaxCores> per_core_retired{};
  std::array<std::uint64_t, kMaxCores> per_core_active{};
  std::array<std::uint64_t, kMaxCores> per_core_sleep{};

  /// Aggregate instructions per cycle over the whole run (the paper's
  /// "Ops per clock cycle").
  [[nodiscard]] double ops_per_cycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(retired_ops) / static_cast<double>(cycles);
  }

  friend bool operator==(const EventCounters&, const EventCounters&) = default;

  /// Fraction of delivered fetches that came from a broadcast group.
  [[nodiscard]] double broadcast_fetch_fraction() const {
    if (im_fetches_delivered == 0) return 0.0;
    return 1.0 - static_cast<double>(im_bank_accesses) /
                     static_cast<double>(im_fetches_delivered);
  }
};

/// One scalar counter of `EventCounters`: its name and its member.
struct CounterField {
  const char* name;
  std::uint64_t EventCounters::* member;
};

/// Every scalar counter of `EventCounters`, in one fixed order. The
/// snapshot wire format, the snapshot diff and the run record's counter
/// columns all walk this one table, so they cannot drift apart; a counter
/// added here reaches all three (and changes the snapshot format).
inline constexpr CounterField kCounterFields[] = {
    {"cycles", &EventCounters::cycles},
    {"im_bank_accesses", &EventCounters::im_bank_accesses},
    {"im_fetches_delivered", &EventCounters::im_fetches_delivered},
    {"im_broadcast_groups", &EventCounters::im_broadcast_groups},
    {"fetch_conflict_cycles", &EventCounters::fetch_conflict_cycles},
    {"dm_bank_accesses", &EventCounters::dm_bank_accesses},
    {"dm_requests_granted", &EventCounters::dm_requests_granted},
    {"dm_broadcast_reads", &EventCounters::dm_broadcast_reads},
    {"dm_conflict_cycles", &EventCounters::dm_conflict_cycles},
    {"policy_hold_events", &EventCounters::policy_hold_events},
    {"retired_ops", &EventCounters::retired_ops},
    {"core_active_cycles", &EventCounters::core_active_cycles},
    {"core_fetch_stall_cycles", &EventCounters::core_fetch_stall_cycles},
    {"core_mem_stall_cycles", &EventCounters::core_mem_stall_cycles},
    {"core_sync_stall_cycles", &EventCounters::core_sync_stall_cycles},
    {"core_sleep_cycles", &EventCounters::core_sleep_cycles},
    {"core_branch_bubble_cycles", &EventCounters::core_branch_bubble_cycles},
    {"core_wakeup_ramp_cycles", &EventCounters::core_wakeup_ramp_cycles},
    {"lockstep_cycles", &EventCounters::lockstep_cycles},
    {"fetch_cycles", &EventCounters::fetch_cycles},
    {"divergence_events", &EventCounters::divergence_events},
};

}  // namespace ulpsync::sim
