#include "sim/platform.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "sim/crossbar.h"

namespace ulpsync::sim {

namespace {

/// Widest mask loops ever needed for synchronizer events: its masks carry
/// one bit per synchronizer-capable core.
constexpr unsigned kSyncMaskBits = 16;

}  // namespace

std::string_view to_string(CoreStatus status) {
  switch (status) {
    case CoreStatus::kReady:      return "ready";
    case CoreStatus::kMemWait:    return "mem-wait";
    case CoreStatus::kPolicyHold: return "policy-hold";
    case CoreStatus::kSyncWait:   return "sync-wait";
    case CoreStatus::kSyncBusy:   return "sync-busy";
    case CoreStatus::kSleeping:   return "sleeping";
    case CoreStatus::kHalted:     return "halted";
    case CoreStatus::kTrapped:    return "trapped";
  }
  return "?";
}

std::string RunResult::to_string() const {
  std::ostringstream out;
  switch (status) {
    case Status::kAllHalted: out << "all halted"; break;
    case Status::kMaxCycles: out << "max cycles reached"; break;
    case Status::kAllAsleep: out << "all cores asleep (deadlock without an external wake-up)"; break;
    case Status::kTrap:
      out << "trap on core " << trap_core << " at pc " << trap_pc << " (kind "
          << static_cast<int>(trap) << ")";
      break;
  }
  out << " after " << cycles << " cycles";
  return out.str();
}

Platform::Platform(const PlatformConfig& config)
    : config_(config),
      im_(config.im_slots(), config.im_banks, config.im_bank_slots,
          config.im_line_slots),
      dm_(config.dm_banks, config.dm_bank_words),
      dm_port_(dm_),
      synchronizer_(dm_port_,
                    std::min(config.num_cores, core::Synchronizer::kMaxCores)),
      cores_(config.num_cores),
      policy_groups_(config.dm_banks) {
  const std::string error = config.validate();
  if (!error.empty()) throw std::invalid_argument("PlatformConfig: " + error);
  fetch_winners_.reserve(config.num_cores);
  touched_cores_.reserve(config.num_cores);
  active_cores_.reserve(config.num_cores);
  dm_bank_requesters_.assign(config.dm_banks, 0);
  dm_banks_requested_.reserve(config.num_cores);
  reset();
}

void Platform::load_program(const assembler::Program& program) {
  finish_load(im_.load(program.origin, program.code));
}

void Platform::load_image(std::uint32_t origin,
                          std::span<const std::uint32_t> image) {
  finish_load(im_.load_encoded(origin, image));
}

void Platform::finish_load(const std::string& error) {
  if (!error.empty()) throw std::invalid_argument(error);
  pc_cores_.assign(im_.end() - im_.begin(), 0);
  reset();
}

void Platform::reset(bool clear_dm) {
  for (unsigned i = 0; i < cores_.size(); ++i) {
    CoreSnapshot& core = cores_[i];
    core = CoreSnapshot{};
    core.arch.core_id = static_cast<std::uint16_t>(i);
    core.arch.num_cores = static_cast<std::uint16_t>(config_.num_cores);
    core.arch.rsync = config_.sync_array_base;
    core.arch.pc = im_.begin();
    core.ramp_cycles = i * config_.start_stagger_cycles;
  }
  for (auto& group : policy_groups_) group = PolicyGroupSnapshot{};
  active_policy_groups_ = 0;
  counters_ = EventCounters{};
  synchronizer_.reset_stats();
  pending_stop_.reset();
  was_lockstep_ = true;
  rr_pointer_ = 0;
  fast_forwarded_cycles_ = 0;
  burst_cycles_ = 0;
  fetch_region_cycles_ = 0;
  last_policy_latch_retired_.assign(cores_.size(), kNoPolicyLatch);
  in_tick_ = false;
  active_this_cycle_.fill(0);
  touched_cores_.clear();
  sleep_pending_from_.fill(0);
  rebuild_schedule_state();
  if (clear_dm) dm_.clear();
}

void Platform::rebuild_schedule_state() {
  status_counts_.fill(0);
  active_cores_.clear();
  for (unsigned i = 0; i < cores_.size(); ++i) {
    status_counts_[static_cast<unsigned>(cores_[i].status)] += 1;
    if (is_active_status(cores_[i].status)) active_cores_.push_back(i);
  }
}

void Platform::set_status(unsigned core, CoreStatus next) {
  CoreSnapshot& c = cores_[core];
  const CoreStatus prev = c.status;
  if (prev == next) return;
  status_counts_[static_cast<unsigned>(prev)] -= 1;
  status_counts_[static_cast<unsigned>(next)] += 1;
  const bool was_active = is_active_status(prev);
  const bool now_active = is_active_status(next);
  if (was_active != now_active) {
    const auto it =
        std::lower_bound(active_cores_.begin(), active_cores_.end(), core);
    if (now_active) {
      active_cores_.insert(it, core);
    } else {
      active_cores_.erase(it);
    }
  }
  // Lazy per-core sleep attribution: a sleeping core accrues one
  // per_core_sleep tick at every end-of-tick accounting point. Instead of
  // walking the sleepers each cycle, remember the first uncredited cycle on
  // entry and settle the whole stretch on exit (or at an external
  // observation — flush_sleep_accounting). The last *completed* accounting
  // point is cycles-1 while inside a tick (this tick's accounting has not
  // run yet) and cycles between ticks.
  if (prev == CoreStatus::kSleeping) {
    const std::uint64_t last = in_tick_ ? counters_.cycles - 1 : counters_.cycles;
    if (sleep_pending_from_[core] <= last) {
      counters_.per_core_sleep[core] += last - sleep_pending_from_[core] + 1;
    }
  } else if (next == CoreStatus::kSleeping) {
    sleep_pending_from_[core] = in_tick_ ? counters_.cycles : counters_.cycles + 1;
  }
  c.status = next;
}

void Platform::flush_sleep_accounting() const {
  const std::uint64_t last = in_tick_ ? counters_.cycles - 1 : counters_.cycles;
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (cores_[i].status != CoreStatus::kSleeping) continue;
    if (sleep_pending_from_[i] > last) continue;
    counters_.per_core_sleep[i] += last - sleep_pending_from_[i] + 1;
    sleep_pending_from_[i] = last + 1;
  }
}

void Platform::accumulate_lockstep(std::uint64_t cycles, bool full) {
  if (lockstep_sink_ == nullptr) return;
  lockstep_sink_->observed_cycles += cycles;
  if (full) lockstep_sink_->full_lockstep_cycles += cycles;
}

void Platform::observe_lockstep_tick() {
  if (lockstep_sink_ == nullptr) return;
  unsigned ready = 0;
  bool one_pc = true;
  for (const unsigned i : active_cores_) {
    ready += cores_[i].status == CoreStatus::kReady;
    one_pc = one_pc && cores_[i].arch.pc == cores_[active_cores_[0]].arch.pc;
  }
  accumulate_lockstep(1, ready >= 2 && ready == active_cores_.size() && one_pc);
}

std::uint16_t Platform::dm_read(std::uint32_t addr) const { return dm_.read(addr); }

void Platform::dm_write(std::uint32_t addr, std::uint16_t value) {
  if (event_sink_ != nullptr)
    event_sink_->on_dm_write(counters_.cycles, addr, value);
  dm_.write(addr, value);
}

void Platform::dm_write_block(std::uint32_t addr,
                              std::span<const std::uint16_t> words) {
  if (event_sink_ != nullptr)
    event_sink_->on_dm_write_block(counters_.cycles, addr, words);
  for (std::size_t i = 0; i < words.size(); ++i)
    dm_.write(addr + static_cast<std::uint32_t>(i), words[i]);
}

std::vector<std::uint16_t> Platform::dm_read_block(std::uint32_t addr,
                                                   std::size_t count) const {
  std::vector<std::uint16_t> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = dm_.read(addr + static_cast<std::uint32_t>(i));
  return out;
}

const core::SynchronizerStats& Platform::sync_stats() const {
  return synchronizer_.stats();
}

void Platform::wake_core(unsigned core) {
  CoreSnapshot& c = cores_[core];
  if (c.status != CoreStatus::kSleeping) return;
  set_status(core, CoreStatus::kReady);
  c.stall_age = 0;
  c.ramp_cycles = config_.wakeup_penalty;
}

void Platform::interrupt(unsigned core) {
  if (event_sink_ != nullptr)
    event_sink_->on_interrupt(counters_.cycles, core);
  wake_core(core);
}

void Platform::interrupt_all() {
  if (event_sink_ != nullptr) event_sink_->on_interrupt_all(counters_.cycles);
  for (unsigned i = 0; i < cores_.size(); ++i) wake_core(i);
}

void Platform::trap(unsigned core, TrapKind kind) {
  set_status(core, CoreStatus::kTrapped);
  if (!pending_stop_) {
    RunResult stop;
    stop.status = RunResult::Status::kTrap;
    stop.trap_core = core;
    stop.trap = kind;
    stop.trap_pc = cores_[core].arch.pc;
    pending_stop_ = stop;
  }
}

void Platform::retire(unsigned core, std::uint32_t next_pc) {
  CoreSnapshot& c = cores_[core];
  c.arch.pc = next_pc;
  set_status(core, CoreStatus::kReady);
  c.stall_age = 0;
  counters_.retired_ops += 1;
  counters_.per_core_retired[core] += 1;
  mark_active(core);
}

void Platform::grant_load(unsigned core, std::uint16_t value) {
  complete_load(cores_[core].arch, cores_[core].load_reg, value);
}

void Platform::retire_mem(unsigned core) {
  retire(core, cores_[core].mem_next_pc);
  cores_[core].load_latched = false;
  // The granted access occupied the execute phase; pad to base CPI.
  cores_[core].bubble_cycles = config_.base_cpi - 1;
}

// Phase 1: synchronizer write phase — completions and wake-ups.
void Platform::phase_sync_writeback() {
  const auto events = synchronizer_.begin_cycle();
  if ((events.completed_checkin_mask | events.completed_checkout_mask |
       events.wake_mask) == 0) {
    return;  // the common cycle: no RMW completing, nobody to wake
  }
  const unsigned n =
      std::min<unsigned>(static_cast<unsigned>(cores_.size()), kSyncMaskBits);
  for (unsigned i = 0; i < n; ++i) {
    const auto bit = static_cast<std::uint16_t>(1u << i);
    if (events.completed_checkin_mask & bit) {
      assert(cores_[i].status == CoreStatus::kSyncBusy);
      retire(i, cores_[i].sync_next_pc);
    } else if (events.completed_checkout_mask & bit) {
      assert(cores_[i].status == CoreStatus::kSyncBusy);
      retire(i, cores_[i].sync_next_pc);
      set_status(i, CoreStatus::kSleeping);
    }
  }
  for (unsigned i = 0; i < n; ++i) {
    const auto bit = static_cast<std::uint16_t>(1u << i);
    if ((events.wake_mask & bit) && cores_[i].status == CoreStatus::kSleeping) {
      set_status(i, CoreStatus::kReady);
      cores_[i].stall_age = 0;
      cores_[i].ramp_cycles = config_.wakeup_penalty;
    }
  }
}

template <typename AtPc>
std::uint64_t Platform::serve_fetch_bank(std::uint64_t requesters,
                                         AtPc at_pc) {
  const std::uint64_t served = fetch_served(
      requesters, config_, rr_pointer_,
      [&](unsigned core) { return cores_[core].stall_age; }, at_pc);
  const std::uint64_t losers = requesters & ~served;
  // Counted in the walks, not by std::popcount: without a popcount
  // instruction in the target flags that is a library call per bank.
  unsigned delivered = 0;
  for (std::uint64_t rest = served; rest != 0; rest &= rest - 1) {
    cores_[std::countr_zero(rest)].stall_age = 0;
    ++delivered;
  }
  unsigned lost = 0;
  for (std::uint64_t rest = losers; rest != 0; rest &= rest - 1) {
    cores_[std::countr_zero(rest)].stall_age += 1;
    ++lost;
  }
  counters_.im_bank_accesses += 1;
  counters_.im_fetches_delivered += delivered;
  if (delivered > 1) counters_.im_broadcast_groups += 1;
  if (lost != 0) {
    counters_.fetch_conflict_cycles += 1;
    counters_.core_fetch_stall_cycles += lost;
  }
  return served;
}

void Platform::count_fetch_cycle(unsigned fetchers, bool same_pc,
                                 unsigned eligible) {
  if (fetchers > 0) counters_.fetch_cycles += 1;
  const bool lockstep = fetchers >= 2 && same_pc && fetchers == eligible;
  if (lockstep) counters_.lockstep_cycles += 1;
  if (was_lockstep_ && !lockstep && fetchers >= 2)
    counters_.divergence_events += 1;
  // Zero or one fetcher is trivially in lockstep.
  was_lockstep_ = lockstep || fetchers < 2;
}

void Platform::settle_cycle() {
  // Aggregate sleep from the population count (per-core attribution is
  // lazy, see flush_sleep_accounting), per-core activity from the touched
  // list — O(clocked cores), not O(num_cores).
  counters_.core_sleep_cycles +=
      status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
  for (const unsigned i : touched_cores_) {
    active_this_cycle_[i] = 0;
    counters_.core_active_cycles += 1;
    counters_.per_core_active[i] += 1;
  }
  touched_cores_.clear();
}

// Phase 2+3: I-Xbar arbitration and execution of the served instructions.
void Platform::phase_fetch_and_execute() {
  fetch_winners_.clear();

  // Collect the fetchers from the active list into per-bank core masks.
  // Every active core is eligible; only Ready cores with no pending
  // bubble/ramp actually fetch. A trap removes the core from the list in
  // place, hence the index loop.
  const unsigned eligible = static_cast<unsigned>(active_cores_.size());
  unsigned total_fetchers = 0;
  bool all_same_pc = true;
  std::uint32_t first_pc = 0;
  std::uint64_t banks = 0;  // IM banks with a fetcher
  // Fetchers per IM bank; an entry is valid only for a bank in `banks`.
  std::array<std::uint64_t, kMaxImBanks> bank_cores;

  for (std::size_t p = 0; p < active_cores_.size();) {
    const unsigned i = active_cores_[p];
    CoreSnapshot& c = cores_[i];
    if (c.status != CoreStatus::kReady) {
      ++p;
      continue;
    }
    if (c.bubble_cycles > 0) {
      // Squashed-fetch slot after a taken branch; the core stays clocked.
      c.bubble_cycles -= 1;
      mark_active(i);
      counters_.core_branch_bubble_cycles += 1;
      ++p;
      continue;
    }
    if (c.ramp_cycles > 0) {
      // Clock-gate release after a wake-up; the core is still gated.
      c.ramp_cycles -= 1;
      counters_.core_wakeup_ramp_cycles += 1;
      ++p;
      continue;
    }
    const std::uint32_t pc = c.arch.pc;
    if (!im_.in_program(pc)) {
      trap(i, TrapKind::kImOutOfRange);  // removed from the active list
      continue;
    }
    if (total_fetchers == 0) first_pc = pc;
    all_same_pc = all_same_pc && (pc == first_pc);
    ++total_fetchers;
    const unsigned bank = im_.bank_of(pc);
    if (((banks >> bank) & 1u) == 0) bank_cores[bank] = 0;
    banks |= 1ull << bank;
    bank_cores[bank] |= 1ull << i;
    ++p;
  }

  count_fetch_cycle(total_fetchers, all_same_pc, eligible);

  // Arbitrate bank by bank, ascending: winners execute in (bank, core)
  // order, which decides which of two traps becomes the stop.
  auto pc_of = [&](unsigned core) { return cores_[core].arch.pc; };
  for (; banks != 0; banks &= banks - 1) {
    const std::uint64_t requesters = bank_cores[std::countr_zero(banks)];
    const std::uint64_t served =
        serve_fetch_bank(requesters, [&](unsigned core) {
          return requesters_at_pc(requesters, core, pc_of);
        });
    for (std::uint64_t rest = served; rest != 0; rest &= rest - 1)
      fetch_winners_.push_back(static_cast<unsigned>(std::countr_zero(rest)));
  }

  // Execute the served instructions.
  for (unsigned core_index : fetch_winners_) {
    CoreSnapshot& c = cores_[core_index];
    const isa::Instruction& instr = im_.at(c.arch.pc);
    const ExecResult result = execute(c.arch, instr);
    mark_active(core_index);

    switch (result.action) {
      case ExecAction::kAdvance: {
        // Taken redirects (branches, JAL, JR) squash the fetch in flight.
        const bool redirect = result.next_pc != c.arch.pc + 1;
        retire(core_index, result.next_pc);
        c.bubble_cycles = config_.base_cpi - 1 +
                          (redirect ? config_.branch_taken_penalty : 0);
        break;
      }
      case ExecAction::kTrap:
        trap(core_index, result.trap);
        break;
      case ExecAction::kHalt:
        counters_.retired_ops += 1;
        counters_.per_core_retired[core_index] += 1;
        set_status(core_index, CoreStatus::kHalted);
        break;
      case ExecAction::kSleep:
        counters_.retired_ops += 1;
        counters_.per_core_retired[core_index] += 1;
        c.arch.pc = result.next_pc;
        set_status(core_index, CoreStatus::kSleeping);
        break;
      case ExecAction::kMemLoad:
      case ExecAction::kMemStore:
        if (!dm_.in_range(result.mem_addr)) {
          trap(core_index, TrapKind::kDmOutOfRange);
          break;
        }
        c.mem_is_store = (result.action == ExecAction::kMemStore);
        c.mem_addr = result.mem_addr;
        c.store_data = result.store_data;
        c.load_reg = result.load_reg;
        c.mem_next_pc = result.next_pc;
        c.load_latched = false;
        set_status(core_index, CoreStatus::kMemWait);  // arbitrated below
        break;
      case ExecAction::kSync:
        if (!config_.features.hardware_synchronizer) {
          trap(core_index, TrapKind::kSyncWithoutHardware);
          break;
        }
        if (!dm_.in_range(result.mem_addr)) {
          trap(core_index, TrapKind::kDmOutOfRange);
          break;
        }
        c.sync_is_checkout = result.sync_is_checkout;
        c.sync_addr = result.mem_addr;
        c.sync_next_pc = result.next_pc;
        set_status(core_index, CoreStatus::kSyncWait);  // submitted below
        break;
    }
  }
}

// Phase 4: submit new and waiting SINC/SDEC requests to the synchronizer.
void Platform::phase_sync_submit() {
  if (status_counts_[static_cast<unsigned>(CoreStatus::kSyncWait)] > 0) {
    for (const unsigned i : active_cores_) {
      CoreSnapshot& c = cores_[i];
      if (c.status != CoreStatus::kSyncWait) continue;
      if (synchronizer_.submit(i, c.sync_addr, c.sync_is_checkout)) {
        set_status(i, CoreStatus::kSyncBusy);
        c.stall_age = 0;
        mark_active(i);  // read phase of the RMW
      } else {
        c.stall_age += 1;
        counters_.core_sync_stall_cycles += 1;
      }
    }
  }
  synchronizer_.finish_cycle();
}

// Phase 5: D-Xbar arbitration (ordinary data accesses).
void Platform::phase_dxbar() {
  // An active policy group always has an unserved member in kMemWait.
  if (status_counts_[static_cast<unsigned>(CoreStatus::kMemWait)] == 0) return;
  for (const unsigned i : active_cores_) {
    if (cores_[i].status != CoreStatus::kMemWait) continue;
    const unsigned bank = dm_.bank_of(cores_[i].mem_addr);
    if (dm_bank_requesters_[bank] == 0) dm_banks_requested_.push_back(bank);
    dm_bank_requesters_[bank] |= std::uint64_t{1} << i;
  }
  // Banks are independent: a bank's service touches only its requesters,
  // its group, its words and summed counters, so their order is free.
  const int locked_bank = synchronizer_.locked_bank();
  for (const unsigned bank : dm_banks_requested_)
    serve_dm_bank(bank, std::exchange(dm_bank_requesters_[bank], 0),
                  locked_bank);
  dm_banks_requested_.clear();
}

void Platform::serve_dm_bank(unsigned bank, std::uint64_t requesters,
                             int locked_bank) {
  PolicyGroupSnapshot& group = policy_groups_[bank];
  if (static_cast<int>(bank) == locked_bank) {
    // The synchronizer's RMW owns the bank this cycle: every waiter, a
    // requester or a held member of the bank's group, waits it out.
    stall_dm(group.active ? requesters | group.member_mask : requesters);
    return;
  }
  auto stall_age = [&](unsigned core) { return cores_[core].stall_age; };
  auto addr_of = [&](unsigned core) { return cores_[core].mem_addr; };
  auto is_store = [&](unsigned core) { return cores_[core].mem_is_store; };

  if (group.active) {
    // The group's next address: the lowest unserved member's, its loads
    // broadcast and a store served alone. Members are held until the whole
    // group is served, then retire together, back in lockstep.
    const std::uint64_t members = group.member_mask;
    const std::uint64_t served =
        access_served(group.unserved_mask, ArbitrationPolicy::kFixedPriority,
                      0, /*broadcast=*/true, stall_age, addr_of, is_store);
    const std::uint16_t value = access_dm_bank(served);
    for (std::uint64_t rest = served; rest != 0; rest &= rest - 1) {
      const auto core = static_cast<unsigned>(std::countr_zero(rest));
      CoreSnapshot& c = cores_[core];
      if (!c.mem_is_store) {
        c.latched_load = value;
        c.load_latched = true;
        last_policy_latch_retired_[core] = counters_.per_core_retired[core];
      }
      mark_active(core);
      set_status(core, CoreStatus::kPolicyHold);
    }
    group.unserved_mask &= ~served;
    if (group.unserved_mask == 0) {
      for (std::uint64_t rest = members; rest != 0; rest &= rest - 1) {
        const auto core = static_cast<unsigned>(std::countr_zero(rest));
        if (!cores_[core].mem_is_store && cores_[core].load_latched)
          grant_load(core, cores_[core].latched_load);
        retire_mem(core);
      }
      group = PolicyGroupSnapshot{};
      assert(active_policy_groups_ > 0);
      active_policy_groups_ -= 1;
    } else {
      stall_dm(members & ~served);  // held members are clock gated
    }
    stall_dm(requesters & ~members);
    return;
  }

  const std::uint64_t served =
      access_served(requesters, config_.arbitration, rr_pointer_,
                    config_.dm_read_broadcast, stall_age, addr_of, is_store);
  if (served != requesters) {
    counters_.dm_conflict_cycles += 1;
    const std::uint64_t same_pc =
        config_.features.dxbar_pc_policy
            ? pc_group(requesters,
                       [&](unsigned core) { return cores_[core].arch.pc; })
            : 0;
    if (same_pc != 0) {
      // The enhanced policy forms a group; everyone waits this cycle (the
      // group-detection cycle) and service starts next cycle.
      group = {true, cores_[std::countr_zero(same_pc)].arch.pc, same_pc,
               same_pc};
      active_policy_groups_ += 1;
      counters_.policy_hold_events += 1;
      stall_dm(requesters);
      return;
    }
  }
  const std::uint16_t value = access_dm_bank(served);
  for (std::uint64_t rest = served; rest != 0; rest &= rest - 1) {
    const auto core = static_cast<unsigned>(std::countr_zero(rest));
    if (!cores_[core].mem_is_store) grant_load(core, value);
    retire_mem(core);
  }
  stall_dm(requesters & ~served);
}

std::uint16_t Platform::access_dm_bank(std::uint64_t served) {
  // A walk of the mask, not std::popcount: without a popcount instruction
  // in the target flags that is a library call, and the region executor's
  // inline service makes a lone-core access every time.
  const CoreSnapshot& first = cores_[std::countr_zero(served)];
  counters_.dm_bank_accesses += 1;
  for (std::uint64_t rest = served; rest != 0; rest &= rest - 1)
    counters_.dm_requests_granted += 1;
  if ((served & (served - 1)) != 0) counters_.dm_broadcast_reads += 1;
  if (first.mem_is_store) {
    dm_.write(first.mem_addr, first.store_data);
    return 0;
  }
  return dm_.read(first.mem_addr);
}

void Platform::stall_dm(std::uint64_t waiters) {
  for (std::uint64_t rest = waiters; rest != 0; rest &= rest - 1) {
    counters_.core_mem_stall_cycles += 1;
    cores_[std::countr_zero(rest)].stall_age += 1;
  }
}

void Platform::tick() {
  counters_.cycles += 1;
  in_tick_ = true;
  if (++rr_pointer_ >= config_.num_cores) rr_pointer_ = 0;

  phase_sync_writeback();
  // Cores still inside the RMW write phase are clocked. (With the 2-cycle
  // RMW every kSyncBusy core retires in the writeback above, so this walk
  // only matters while an RMW is in flight.)
  if (synchronizer_.busy() &&
      status_counts_[static_cast<unsigned>(CoreStatus::kSyncBusy)] > 0) {
    for (const unsigned i : active_cores_) {
      if (cores_[i].status == CoreStatus::kSyncBusy) mark_active(i);
    }
  }
  phase_fetch_and_execute();
  phase_sync_submit();
  phase_dxbar();
  settle_cycle();
  observe_lockstep_tick();
  in_tick_ = false;
  if (observer_) observer_(*this);
}

std::uint64_t Platform::straight_step(std::uint64_t max_cycles) {
  const unsigned cpi = config_.base_cpi;
  if (max_cycles < cpi) return 0;

  // Every active core must be exactly at a fetch boundary (no bubble/ramp
  // countdown, no stall-age carry-over that naive arbitration would reset)
  // and at the head of a straight-line run.
  std::uint32_t min_run = 0xFFFFFFFF;
  for (const unsigned i : active_cores_) {
    const CoreSnapshot& c = cores_[i];
    if (c.bubble_cycles != 0 || c.ramp_cycles != 0 || c.stall_age != 0)
      return 0;
    if (!im_.in_program(c.arch.pc)) return 0;  // let the tick trap
    const std::uint32_t run = im_.straight_run(c.arch.pc);
    if (run == 0) return 0;
    min_run = std::min(min_run, run);
  }
  const std::uint64_t limit = std::min<std::uint64_t>(min_run, max_cycles / cpi);

  // Group the fetchers by PC. Cores sharing a PC broadcast off one bank
  // read and advance together; distinct PCs must stay on pairwise-distinct
  // IM banks for the whole step (checked per instruction below) so no
  // fetch ever loses arbitration.
  const auto num_fetchers = static_cast<unsigned>(active_cores_.size());
  std::array<std::uint32_t, EventCounters::kMaxCores> group_pc;
  std::array<std::uint16_t, EventCounters::kMaxCores> group_size{};
  unsigned num_groups = 0;
  for (const unsigned i : active_cores_) {
    const std::uint32_t pc = cores_[i].arch.pc;
    unsigned g = 0;
    while (g < num_groups && group_pc[g] != pc) ++g;
    if (g == num_groups) group_pc[num_groups++] = pc;
    group_size[g] += 1;
  }
  unsigned broadcast_groups = 0;
  for (unsigned g = 0; g < num_groups; ++g)
    broadcast_groups += (group_size[g] > 1);
  // Without fetch broadcasting a shared-PC group serves one core per cycle
  // (the rest stall and fall out of phase) — arbitrated cycles required.
  if (broadcast_groups > 0 && !config_.im_fetch_broadcast) return 0;

  const bool lockstep = num_fetchers >= 2 && num_groups == 1;
  const bool entered_in_lockstep = was_lockstep_;

  // The tight loop: per instruction, prove this cycle's fetches
  // conflict-free, then execute one straight-line instruction on every
  // core.
  std::uint64_t steps = 0;
  while (steps < limit) {
    if (num_groups > 1) {
      std::uint64_t bank_set = 0;
      bool collide = false;
      for (unsigned g = 0; g < num_groups; ++g) {
        const std::uint64_t bit = 1ull << im_.bank_of(group_pc[g]);
        collide = collide || (bank_set & bit) != 0;
        bank_set |= bit;
      }
      if (collide) break;
    }
    for (const unsigned i : active_cores_) {
      CoreSnapshot& c = cores_[i];
      (void)execute(c.arch, im_.at(c.arch.pc));  // always advances by 1
      c.arch.pc += 1;
    }
    for (unsigned g = 0; g < num_groups; ++g) group_pc[g] += 1;
    ++steps;
  }
  if (steps == 0) return 0;

  // Batch-apply what `steps * cpi` naive ticks would have recorded: per
  // instruction one fetch cycle (every group one bank access, every core
  // one delivered fetch and a retire) followed by cpi-1 clocked bubble
  // cycles per core; sleeping cores accrue aggregate sleep.
  const std::uint64_t cycles = steps * cpi;
  counters_.cycles += cycles;
  rr_pointer_ = static_cast<unsigned>((rr_pointer_ + cycles) % config_.num_cores);
  counters_.fetch_cycles += steps;
  counters_.im_bank_accesses += steps * num_groups;
  counters_.im_fetches_delivered += steps * num_fetchers;
  counters_.im_broadcast_groups += steps * broadcast_groups;
  counters_.retired_ops += steps * num_fetchers;
  counters_.core_active_cycles += cycles * num_fetchers;
  counters_.core_branch_bubble_cycles += steps * (cpi - 1) * num_fetchers;
  for (const unsigned i : active_cores_) {
    counters_.per_core_retired[i] += steps;
    counters_.per_core_active[i] += cycles;
  }
  counters_.core_sleep_cycles +=
      cycles * status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
  if (lockstep) {
    counters_.lockstep_cycles += steps;
    was_lockstep_ = true;
  } else if (num_fetchers >= 2) {
    // Diverged fetchers: every fetch cycle observes non-lockstep. With
    // cpi > 1 the bubble cycles between fetches reset the tracker (zero
    // fetchers is "trivially in lockstep"), so every instruction but the
    // first counts a divergence event; the first counts one only when the
    // step entered in lockstep.
    if (cpi > 1) {
      counters_.divergence_events += steps - 1 + (entered_in_lockstep ? 1 : 0);
      was_lockstep_ = true;
    } else {
      counters_.divergence_events += entered_in_lockstep ? 1 : 0;
      was_lockstep_ = false;
    }
  } else {
    was_lockstep_ = true;  // a single fetcher is trivially in lockstep
  }
  // End-of-tick lockstep observations: every core Ready throughout, so each
  // cycle is in full lockstep exactly when the step is.
  accumulate_lockstep(cycles, lockstep);
  burst_cycles_ += cycles;
  fast_forwarded_cycles_ += steps * (cpi - 1);  // the fetcherless bubbles
  return cycles;
}

std::uint64_t Platform::run_region(std::uint64_t max_cycles) {
  if (synchronizer_.busy() || active_policy_groups_ != 0 ||
      active_cores_.empty() ||
      status_counts_[static_cast<unsigned>(CoreStatus::kReady)] !=
          active_cores_.size())
    return 0;
  assert(std::all_of(pc_cores_.begin(), pc_cores_.end(),
                     [](std::uint64_t cores) { return cores == 0; }));

  // No core's status survives a cycle changed here: fetch-ready cores
  // execute only region-safe instructions (ALU/control flow retire in
  // place; plain loads/stores are served the same cycle when
  // conflict-free), the rest count their bubbles/ramps down, sleepers
  // sleep.
  //
  // Instead of re-scanning all cores every cycle, the fetch set is kept
  // across cycles as one core mask per IM bank plus the mask of occupied
  // banks: served cores leave their bank's mask at once, idle cores join
  // when their bubble or ramp expires (effective the next cycle, like the
  // naive collection order), and a PC whose slot is not region-safe
  // "poisons" the region with a deadline — the cycle at which that core
  // would fetch again — so every executed cycle is known safe in advance
  // and a bail never leaves half-applied state.
  const unsigned cpi_pad = config_.base_cpi - 1;

  // The fetch set: cores per IM bank (0 for a bank without one, over the
  // first im_banks entries), the occupied banks and the set's size.
  std::array<std::uint64_t, kMaxImBanks> bank_cores;
  std::uint64_t banks = 0;
  unsigned nf = 0;
  std::array<std::uint8_t, EventCounters::kMaxCores> idle_list;
  std::array<std::uint8_t, EventCounters::kMaxCores> rejoin;  // after the cycle
  std::array<std::uint8_t, EventCounters::kMaxCores> mem_cores;
  std::array<unsigned, EventCounters::kMaxCores> mem_banks;  // their DM banks
  std::array<std::uint32_t, EventCounters::kMaxCores> pc_cache;
  // Out of range until `revalidate` writes an entry, so a core joining the
  // fetch set unvalidated fails `join`'s assert instead of indexing with an
  // indeterminate bank.
  constexpr std::uint8_t kNoBank = 0xFF;
  std::array<std::uint8_t, EventCounters::kMaxCores> bank_cache;
  bank_cache.fill(kNoBank);
  unsigned num_idle = 0;
  std::uint64_t done = 0;
  std::uint64_t poison_deadline = ~0ull;
  bool force_exit = false;  // ends the region after the current cycle

  auto join = [&](unsigned core) {
    const unsigned bank = bank_cache[core];
    assert(bank < config_.im_banks);
    bank_cores[bank] |= 1ull << core;
    banks |= 1ull << bank;
    ++nf;
  };
  // Validates a core's next fetch slot: caches it when region-safe, else
  // poisons the region for the cycle the core would fetch it
  // (`rejoin_in` = cycles until then, counted from the next cycle).
  auto revalidate = [&](unsigned core, std::uint32_t pc,
                        std::uint64_t rejoin_in) {
    if (im_.in_program(pc) && im_.region_safe(pc)) {
      pc_cache[core] = pc;
      bank_cache[core] = static_cast<std::uint8_t>(im_.bank_of(pc));
      return true;
    }
    // A poisoned idle core still joins the fetch set when it expires; the
    // deadline ends the region before it is arbitrated, so any in-range
    // bank will do.
    bank_cache[core] = 0;
    poison_deadline = std::min(poison_deadline, done + rejoin_in);
    return false;
  };

  // The same-PC sets: `pc_cores_` holds every active core's bit at its PC,
  // moved at each PC change before the PC is written. The active set is
  // constant while the regime holds (a trap ends the region), so "every
  // active core at one PC" is one compare of the mask at any active core's
  // PC. Every cycle the regime holds, all active cores are Ready, so that
  // compare is also the cycle's lockstep observation; the region counts
  // its observations and adds them to the sink once, at exit.
  const auto live = static_cast<unsigned>(active_cores_.size());
  const unsigned lead = active_cores_.front();
  std::uint64_t active = 0;
  for (const unsigned i : active_cores_) active |= std::uint64_t{1} << i;
  std::uint64_t observed = 0;
  std::uint64_t full = 0;
  auto cores_at = [&](std::uint32_t pc) -> std::uint64_t& {
    return pc_cores_[pc - im_.begin()];
  };
  auto all_at_one_pc = [&] { return cores_at(cores_[lead].arch.pc) == active; };
  // Moves `core`'s bit to `next_pc`. A PC that leaves the program holds no
  // bit and ends the region after this cycle, which observes generically.
  auto move_pc = [&](unsigned core, std::uint32_t next_pc) {
    cores_at(cores_[core].arch.pc) &= ~(std::uint64_t{1} << core);
    if (im_.in_program(next_pc)) {
      cores_at(next_pc) |= std::uint64_t{1} << core;
    } else {
      force_exit = true;
    }
  };
  // Zeroes the slots the active cores hold: all masks are zero again (a
  // trapping core cleared its own bit as it left the actives).
  auto clear_masks = [&] {
    for (const unsigned i : active_cores_)
      if (im_.in_program(cores_[i].arch.pc)) cores_at(cores_[i].arch.pc) = 0;
  };

  // Builds the fetch set, the idle list and the masks from the
  // authoritative core state, on entry and after a straight-line step.
  // After a step every active core has advanced `moved` slots, so the
  // slots it left are cleared first. False when an active PC is outside
  // the program or a core about to fetch sits on a slot only the naive
  // tick handles.
  auto build = [&](std::uint32_t moved) {
    std::fill_n(bank_cores.begin(), config_.im_banks, 0);
    banks = 0;
    nf = 0;
    num_idle = 0;
    poison_deadline = ~0ull;
    if (moved != 0) {
      for (const unsigned i : active_cores_)
        cores_at(cores_[i].arch.pc - moved) = 0;
    }
    for (const unsigned i : active_cores_) {
      const CoreSnapshot& c = cores_[i];
      if (!im_.in_program(c.arch.pc)) return false;
      cores_at(c.arch.pc) |= std::uint64_t{1} << i;
      const std::uint64_t idle =
          static_cast<std::uint64_t>(c.bubble_cycles) + c.ramp_cycles;
      if (idle == 0) {
        if (!revalidate(i, c.arch.pc, 0)) return false;
        join(i);
      } else {
        idle_list[num_idle++] = static_cast<std::uint8_t>(i);
        (void)revalidate(i, c.arch.pc, idle);
      }
    }
    return true;
  };

  bool entry = true;
  while (done < max_cycles) {
    // A straight-line step needs every active core at a fetch boundary:
    // possible on entry and whenever the idle list has drained. The lists
    // and masks are built on entry and follow a step that moved, before
    // the budget may end the region.
    if (entry || num_idle == 0) {
      const std::uint64_t stepped = straight_step(max_cycles - done);
      done += stepped;
      const auto moved =
          static_cast<std::uint32_t>(entry ? 0 : stepped / config_.base_cpi);
      if ((entry || stepped != 0) && (!build(moved) || done == max_cycles))
        break;
      entry = false;
    }
    if (done >= poison_deadline) break;

    // One arbitrated cycle; with an empty fetch set it only counts the
    // idle cores down.
    const unsigned fetchers = nf;
    counters_.cycles += 1;
    ++done;
    if (++rr_pointer_ >= config_.num_cores) rr_pointer_ = 0;

    // Idle actives count their bubble (clocked) or ramp (gated) down.
    // Expired cores fetch from the NEXT cycle on, so they join the fetch set
    // after this cycle's arbitration.
    unsigned num_rejoin = 0;
    unsigned still_idle = 0;
    for (unsigned k = 0; k < num_idle; ++k) {
      const unsigned i = idle_list[k];
      CoreSnapshot& c = cores_[i];
      if (c.bubble_cycles > 0) {
        c.bubble_cycles -= 1;
        counters_.core_branch_bubble_cycles += 1;
        counters_.core_active_cycles += 1;
        counters_.per_core_active[i] += 1;
      } else {
        c.ramp_cycles -= 1;
        counters_.core_wakeup_ramp_cycles += 1;
      }
      if (c.bubble_cycles + c.ramp_cycles == 0) {
        rejoin[num_rejoin++] = static_cast<std::uint8_t>(i);
      } else {
        idle_list[still_idle++] = static_cast<std::uint8_t>(i);
      }
    }
    num_idle = still_idle;

    // The cycle is in lockstep only when every eligible core fetches, all
    // at one PC.
    count_fetch_cycle(fetchers, fetchers == live && all_at_one_pc(), live);

    // Per-bank arbitration, service and execution — the same decisions as
    // phase_fetch_and_execute, with the execute-action switch reduced to
    // the three outcomes region-safe instructions can produce. Served
    // cores leave the fetch set at once; those that fetch again next cycle
    // (cpi 1, no redirect penalty) rejoin it after the cycle.
    unsigned num_mem = 0;
    for (std::uint64_t pending = banks; pending != 0; pending &= pending - 1) {
      const auto bank = static_cast<unsigned>(std::countr_zero(pending));
      const std::uint64_t served =
          serve_fetch_bank(bank_cores[bank], [&](unsigned core) {
            return cores_at(pc_cache[core]);
          });
      bank_cores[bank] &= ~served;
      if (bank_cores[bank] == 0) banks &= ~(1ull << bank);
      const std::uint32_t win_pc = pc_cache[std::countr_zero(served)];
      for (std::uint64_t rest = served; rest != 0; rest &= rest - 1) {
        const auto core_index = static_cast<unsigned>(std::countr_zero(rest));
        CoreSnapshot& c = cores_[core_index];
        --nf;  // counted here: std::popcount would be a library call
        const ExecResult result = execute(c.arch, im_.at(win_pc));
        switch (result.action) {
          case ExecAction::kAdvance: {
            const bool redirect = result.next_pc != win_pc + 1;
            move_pc(core_index, result.next_pc);
            c.arch.pc = result.next_pc;
            const unsigned pad =
                cpi_pad + (redirect ? config_.branch_taken_penalty : 0);
            c.bubble_cycles = pad;
            counters_.retired_ops += 1;
            counters_.per_core_retired[core_index] += 1;
            counters_.core_active_cycles += 1;
            counters_.per_core_active[core_index] += 1;
            if (pad > 0) {
              idle_list[num_idle++] = static_cast<std::uint8_t>(core_index);
              (void)revalidate(core_index, result.next_pc, pad);
            } else if (revalidate(core_index, result.next_pc, 0)) {
              rejoin[num_rejoin++] = static_cast<std::uint8_t>(core_index);
            }
            break;
          }
          default: {  // kMemLoad / kMemStore — the only other outcomes
            // (mark_active here, not direct adds: the core's activity
            // settles through the touched list so a phase_dxbar fallback
            // cannot double-count it.)
            mark_active(core_index);
            if (!dm_.in_range(result.mem_addr)) {
              // The core leaves the actives: its bit leaves the masks.
              cores_at(c.arch.pc) &= ~(std::uint64_t{1} << core_index);
              trap(core_index, TrapKind::kDmOutOfRange);
              force_exit = true;
              break;
            }
            c.mem_is_store = (result.action == ExecAction::kMemStore);
            c.mem_addr = result.mem_addr;
            c.store_data = result.store_data;
            c.load_reg = result.load_reg;
            c.mem_next_pc = result.next_pc;
            c.load_latched = false;
            set_status(core_index, CoreStatus::kMemWait);
            mem_cores[num_mem++] = static_cast<std::uint8_t>(core_index);
            break;
          }
        }
      }
    }

    // D-Xbar service for this cycle's loads/stores. Pairwise-distinct DM
    // banks (the common case: private per-core banks) are conflict-free by
    // construction: each access is its bank's lone requester and is served
    // inline through the D-Xbar's bank access. Anything else goes through
    // the real phase — exact conflicts, broadcasts and policy-group
    // formation — and ends the region after this cycle. The check marks
    // the banks in the D-Xbar's per-bank scratch, so it is exact for any
    // bank count, and clears them again before the phase can read it. (The
    // synchronizer is idle, so skipping its begin/submit/finish phases
    // changes nothing.)
    if (num_mem > 0) {
      bool disjoint = true;
      for (unsigned m = 0; m < num_mem; ++m) {
        const unsigned core_index = mem_cores[m];
        const unsigned bank = dm_.bank_of(cores_[core_index].mem_addr);
        mem_banks[m] = bank;
        disjoint = disjoint && dm_bank_requesters_[bank] == 0;
        dm_bank_requesters_[bank] |= std::uint64_t{1} << core_index;
      }
      for (unsigned m = 0; m < num_mem; ++m)
        dm_bank_requesters_[mem_banks[m]] = 0;
      if (disjoint) {
        for (unsigned m = 0; m < num_mem; ++m) {
          const unsigned core_index = mem_cores[m];
          CoreSnapshot& c = cores_[core_index];
          const std::uint16_t value =
              access_dm_bank(std::uint64_t{1} << core_index);
          if (!c.mem_is_store) grant_load(core_index, value);
          move_pc(core_index, c.mem_next_pc);
          retire_mem(core_index);  // pc = mem_next_pc, bubble = cpi_pad
          if (cpi_pad > 0) {
            idle_list[num_idle++] = static_cast<std::uint8_t>(core_index);
            (void)revalidate(core_index, c.mem_next_pc, cpi_pad);
          } else if (revalidate(core_index, c.mem_next_pc, 0)) {
            rejoin[num_rejoin++] = static_cast<std::uint8_t>(core_index);
          }
        }
      } else {
        clear_masks();  // the phase retires cores without moving their bits
        phase_dxbar();
        force_exit = true;  // the local fetch set and idle list are stale now
      }
    }
    for (unsigned k = 0; k < num_rejoin; ++k) join(rejoin[k]);

    // (The touched list holds only this cycle's memory cores; every other
    // activity was added directly.)
    settle_cycle();
    if (fetchers == 0) {
      fast_forwarded_cycles_ += 1;
    } else {
      fetch_region_cycles_ += 1;
    }

    // Regime check: an unresolved DM conflict (kMemWait/kPolicyHold
    // survivors), a trap, a D-Xbar fallback or a PC outside the program
    // ends the region; the generic loop takes over (and rebuilds on
    // re-entry). The masks are only valid while the regime holds, so the
    // break path observes generically.
    if (force_exit ||
        status_counts_[static_cast<unsigned>(CoreStatus::kReady)] !=
            active_cores_.size() ||
        active_cores_.empty()) {
      observe_lockstep_tick();
      break;
    }
    ++observed;
    if (live >= 2 && all_at_one_pc()) ++full;
  }
  clear_masks();
  accumulate_lockstep(observed - full, false);
  accumulate_lockstep(full, true);
  return done;
}

RunResult Platform::run(std::uint64_t max_cycles) {
  RunResult result;
  // Hoisted out of the loop: an observer suppresses the region executor
  // (it must see every cycle), and neither the observer nor the config can
  // change while run() is on the stack.
  const bool allow_region = config_.fast_forward && observer_ == nullptr;
  const std::uint32_t halted_index =
      static_cast<unsigned>(CoreStatus::kHalted);
  const std::uint32_t trapped_index =
      static_cast<unsigned>(CoreStatus::kTrapped);

  while (counters_.cycles < max_cycles) {
    // Exit logic from the population counts — O(1) per iteration, no core
    // scan. The active list is empty exactly when every core is halted,
    // trapped or sleeping.
    if (status_counts_[halted_index] == cores_.size()) {
      result.status = RunResult::Status::kAllHalted;
      result.cycles = counters_.cycles;
      return result;
    }
    if (pending_stop_) {
      result = *pending_stop_;
      result.cycles = counters_.cycles;
      return result;
    }
    const unsigned finished =
        status_counts_[halted_index] + status_counts_[trapped_index];
    if (finished == cores_.size()) {
      // Mixture of halted and trapped cores with no stop recorded.
      result.status = RunResult::Status::kAllHalted;
      result.cycles = counters_.cycles;
      return result;
    }
    if (active_cores_.empty() && !synchronizer_.busy()) {
      // Every live core is asleep and no wake-up can ever arrive.
      result.status = RunResult::Status::kAllAsleep;
      result.cycles = counters_.cycles;
      return result;
    }
    if (allow_region && run_region(max_cycles - counters_.cycles) != 0)
      continue;
    tick();
  }
  result.status = RunResult::Status::kMaxCycles;
  result.cycles = counters_.cycles;
  return result;
}

}  // namespace ulpsync::sim
