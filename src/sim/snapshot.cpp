#include "sim/snapshot.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::sim {

namespace {

constexpr std::uint8_t kMagic[8] = {'U', 'L', 'P', 'S', 'N', 'A', 'P', '\n'};

using util::WireReader;
using util::WireWriter;

void write_config(WireWriter& w, const PlatformConfig& config) {
  w.u32(config.num_cores);
  w.u32(config.im_banks);
  w.u32(config.im_bank_slots);
  w.u32(config.im_line_slots);
  w.u32(config.dm_banks);
  w.u32(config.dm_bank_words);
  w.boolean(config.features.hardware_synchronizer);
  w.boolean(config.features.dxbar_pc_policy);
  w.boolean(config.features.ixbar_partial_broadcast);
  w.boolean(config.im_fetch_broadcast);
  w.boolean(config.dm_read_broadcast);
  w.u16(config.sync_array_base);
  w.u32(config.base_cpi);
  w.u32(config.branch_taken_penalty);
  w.u32(config.wakeup_penalty);
  w.u8(static_cast<std::uint8_t>(config.arbitration));
  w.u32(config.start_stagger_cycles);
  w.boolean(config.fast_forward);
}

PlatformConfig read_config(WireReader& r) {
  PlatformConfig config;
  config.num_cores = r.u32();
  config.im_banks = r.u32();
  config.im_bank_slots = r.u32();
  config.im_line_slots = r.u32();
  config.dm_banks = r.u32();
  config.dm_bank_words = r.u32();
  config.features.hardware_synchronizer = r.boolean();
  config.features.dxbar_pc_policy = r.boolean();
  config.features.ixbar_partial_broadcast = r.boolean();
  config.im_fetch_broadcast = r.boolean();
  config.dm_read_broadcast = r.boolean();
  config.sync_array_base = r.u16();
  config.base_cpi = r.u32();
  config.branch_taken_penalty = r.u32();
  config.wakeup_penalty = r.u32();
  config.arbitration = static_cast<ArbitrationPolicy>(r.u8());
  config.start_stagger_cycles = r.u32();
  config.fast_forward = r.boolean();  // the host-side region-executor knob
  const std::string error = config.validate();
  if (!error.empty()) throw std::invalid_argument("snapshot: " + error);
  return config;
}

/// Per-core counter arrays on the wire: the historical format always wrote
/// `kMaxCores == 8` entries; wider platforms write one entry per core so
/// every ≤8-core image (all committed goldens) stays byte-identical.
unsigned per_core_wire_entries(const PlatformConfig& config) {
  return std::max(config.num_cores, 8u);
}

/// Policy-group masks on the wire: 16 bits for ≤16-core platforms (the
/// historical format), 64 bits beyond.
bool wide_masks(const PlatformConfig& config) { return config.num_cores > 16; }

void write_core(WireWriter& w, const CoreSnapshot& core) {
  for (std::uint16_t reg : core.arch.regs) w.u16(reg);
  w.boolean(core.arch.flags.z);
  w.boolean(core.arch.flags.n);
  w.boolean(core.arch.flags.c);
  w.boolean(core.arch.flags.v);
  w.u32(core.arch.pc);
  w.u16(core.arch.rsync);
  w.u16(core.arch.core_id);
  w.u16(core.arch.num_cores);
  w.u8(static_cast<std::uint8_t>(core.status));
  w.u64(core.stall_age);
  w.u32(core.bubble_cycles);
  w.u32(core.ramp_cycles);
  w.boolean(core.mem_is_store);
  w.u32(core.mem_addr);
  w.u16(core.store_data);
  w.u8(core.load_reg);
  w.u32(core.mem_next_pc);
  w.boolean(core.load_latched);
  w.u16(core.latched_load);
  w.boolean(core.sync_is_checkout);
  w.u32(core.sync_addr);
  w.u32(core.sync_next_pc);
}

CoreSnapshot read_core(WireReader& r) {
  CoreSnapshot core;
  for (std::uint16_t& reg : core.arch.regs) reg = r.u16();
  core.arch.flags.z = r.boolean();
  core.arch.flags.n = r.boolean();
  core.arch.flags.c = r.boolean();
  core.arch.flags.v = r.boolean();
  core.arch.pc = r.u32();
  core.arch.rsync = r.u16();
  core.arch.core_id = r.u16();
  core.arch.num_cores = r.u16();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(CoreStatus::kTrapped))
    throw std::invalid_argument("snapshot: invalid core status");
  core.status = static_cast<CoreStatus>(status);
  core.stall_age = r.u64();
  core.bubble_cycles = r.u32();
  core.ramp_cycles = r.u32();
  core.mem_is_store = r.boolean();
  core.mem_addr = r.u32();
  core.store_data = r.u16();
  core.load_reg = r.u8();
  core.mem_next_pc = r.u32();
  core.load_latched = r.boolean();
  core.latched_load = r.u16();
  core.sync_is_checkout = r.boolean();
  core.sync_addr = r.u32();
  core.sync_next_pc = r.u32();
  return core;
}

void write_counters(WireWriter& w, const EventCounters& counters,
                    unsigned per_core_entries) {
  for (const CounterField& field : kCounterFields) w.u64(counters.*field.member);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_retired[i]);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_active[i]);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_sleep[i]);
}

EventCounters read_counters(WireReader& r, unsigned per_core_entries) {
  EventCounters counters;
  for (const CounterField& field : kCounterFields) counters.*field.member = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_retired[i] = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_active[i] = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_sleep[i] = r.u64();
  return counters;
}

std::string core_status_name(CoreStatus status) {
  return std::string(to_string(status));
}

}  // namespace

std::vector<std::uint8_t> Snapshot::serialize() const {
  WireWriter w;
  for (std::uint8_t byte : kMagic) w.u8(byte);
  w.u32(kFormatVersion);
  write_config(w, config);
  w.u64(im_fingerprint);

  w.u32(static_cast<std::uint32_t>(cores.size()));
  for (const CoreSnapshot& core : cores) write_core(w, core);

  w.u32(static_cast<std::uint32_t>(policy_groups.size()));
  for (const PolicyGroupSnapshot& group : policy_groups) {
    w.boolean(group.active);
    w.u32(group.pc);
    if (wide_masks(config)) {
      w.u64(group.member_mask);
      w.u64(group.unserved_mask);
    } else {
      w.u16(static_cast<std::uint16_t>(group.member_mask));
      w.u16(static_cast<std::uint16_t>(group.unserved_mask));
    }
  }
  w.u32(active_policy_groups);

  write_counters(w, counters, per_core_wire_entries(config));

  w.u64(sync.stats.rmw_ops);
  w.u64(sync.stats.dm_accesses);
  w.u64(sync.stats.checkins);
  w.u64(sync.stats.checkouts);
  w.u64(sync.stats.merged_requests);
  w.u64(sync.stats.wakeup_events);
  w.u64(sync.stats.wakeups_delivered);
  w.u64(sync.stats.max_merge_width);
  w.boolean(sync.inflight_active);
  w.u32(sync.inflight_addr);
  w.u16(sync.inflight_checkin_mask);
  w.u16(sync.inflight_checkout_mask);

  w.boolean(has_pending_stop);
  w.u8(static_cast<std::uint8_t>(pending_stop.status));
  w.u64(pending_stop.cycles);
  w.u32(pending_stop.trap_core);
  w.u8(static_cast<std::uint8_t>(pending_stop.trap));
  w.u32(pending_stop.trap_pc);

  w.boolean(was_lockstep);
  w.u32(rr_pointer);
  w.u64(fast_forwarded_cycles);

  w.u32(static_cast<std::uint32_t>(dm_runs.size()));
  for (const DmRun& run : dm_runs) {
    w.u32(run.addr);
    w.u32(static_cast<std::uint32_t>(run.words.size()));
    for (std::uint16_t word : run.words) w.u16(word);
  }

  w.u32(static_cast<std::uint32_t>(host_words.size()));
  for (std::uint64_t word : host_words) w.u64(word);

  return w.take();
}

Snapshot Snapshot::deserialize(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  for (std::uint8_t expected : kMagic) {
    if (r.u8() != expected)
      throw std::invalid_argument("snapshot: bad magic (not a snapshot image)");
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw std::invalid_argument("snapshot: unsupported format version " +
                                std::to_string(version) + " (expected " +
                                std::to_string(kFormatVersion) + ")");
  }

  Snapshot snap;
  snap.config = read_config(r);
  snap.im_fingerprint = r.u64();

  const std::uint32_t num_cores = r.u32();
  if (num_cores != snap.config.num_cores)
    throw std::invalid_argument("snapshot: core record count disagrees with config");
  snap.cores.reserve(num_cores);
  for (std::uint32_t i = 0; i < num_cores; ++i) snap.cores.push_back(read_core(r));

  const std::uint32_t num_groups = r.u32();
  if (num_groups != snap.config.dm_banks)
    throw std::invalid_argument("snapshot: policy group count disagrees with config");
  snap.policy_groups.reserve(num_groups);
  for (std::uint32_t i = 0; i < num_groups; ++i) {
    PolicyGroupSnapshot group;
    group.active = r.boolean();
    group.pc = r.u32();
    if (wide_masks(snap.config)) {
      group.member_mask = r.u64();
      group.unserved_mask = r.u64();
    } else {
      group.member_mask = r.u16();
      group.unserved_mask = r.u16();
    }
    snap.policy_groups.push_back(group);
  }
  snap.active_policy_groups = r.u32();
  if (snap.active_policy_groups > num_groups)
    throw std::invalid_argument("snapshot: active policy group count out of range");

  snap.counters = read_counters(r, per_core_wire_entries(snap.config));

  snap.sync.stats.rmw_ops = r.u64();
  snap.sync.stats.dm_accesses = r.u64();
  snap.sync.stats.checkins = r.u64();
  snap.sync.stats.checkouts = r.u64();
  snap.sync.stats.merged_requests = r.u64();
  snap.sync.stats.wakeup_events = r.u64();
  snap.sync.stats.wakeups_delivered = r.u64();
  snap.sync.stats.max_merge_width = r.u64();
  snap.sync.inflight_active = r.boolean();
  snap.sync.inflight_addr = r.u32();
  snap.sync.inflight_checkin_mask = r.u16();
  snap.sync.inflight_checkout_mask = r.u16();

  snap.has_pending_stop = r.boolean();
  const std::uint8_t stop_status = r.u8();
  if (stop_status > static_cast<std::uint8_t>(RunResult::Status::kTrap))
    throw std::invalid_argument("snapshot: invalid pending stop status");
  snap.pending_stop.status = static_cast<RunResult::Status>(stop_status);
  snap.pending_stop.cycles = r.u64();
  snap.pending_stop.trap_core = r.u32();
  const std::uint8_t trap_kind = r.u8();
  if (trap_kind > static_cast<std::uint8_t>(TrapKind::kSyncWithoutHardware))
    throw std::invalid_argument("snapshot: invalid trap kind");
  snap.pending_stop.trap = static_cast<TrapKind>(trap_kind);
  snap.pending_stop.trap_pc = r.u32();

  snap.was_lockstep = r.boolean();
  snap.rr_pointer = r.u32();
  snap.fast_forwarded_cycles = r.u64();

  const std::uint64_t dm_words =
      static_cast<std::uint64_t>(snap.config.dm_banks) * snap.config.dm_bank_words;
  const std::uint32_t num_runs = r.u32();
  if (num_runs > dm_words)
    throw std::invalid_argument("snapshot: DM run count out of range");
  snap.dm_runs.reserve(num_runs);
  for (std::uint32_t i = 0; i < num_runs; ++i) {
    DmRun run;
    run.addr = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || run.addr + static_cast<std::uint64_t>(count) > dm_words)
      throw std::invalid_argument("snapshot: DM run out of range");
    run.words.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) run.words.push_back(r.u16());
    snap.dm_runs.push_back(std::move(run));
  }

  const std::uint32_t num_host_words = r.u32();
  // Each host word occupies 8 bytes that the reader bound-checks, so a
  // corrupt count can over-claim by at most the remaining image size.
  snap.host_words.reserve(std::min<std::size_t>(num_host_words, 1u << 20));
  for (std::uint32_t i = 0; i < num_host_words; ++i)
    snap.host_words.push_back(r.u64());

  if (!r.at_end())
    throw std::invalid_argument("snapshot: trailing bytes after image");
  return snap;
}

std::uint64_t Snapshot::content_hash() const {
  return util::fnv1a64(serialize());
}

// --- Platform capture/restore ----------------------------------------------

Snapshot Platform::save_snapshot() const {
  flush_sleep_accounting();  // settle lazy per-core sleep attribution
  Snapshot snap;
  snap.config = config_;
  snap.im_fingerprint = im_.fingerprint();

  snap.cores = cores_;
  snap.policy_groups = policy_groups_;
  snap.active_policy_groups = active_policy_groups_;

  snap.counters = counters_;
  snap.sync = synchronizer_.save_state();

  snap.has_pending_stop = pending_stop_.has_value();
  if (pending_stop_) snap.pending_stop = *pending_stop_;
  snap.was_lockstep = was_lockstep_;
  // The wire format stores the historical raw accumulator (one increment
  // per cycle since reset == cycles mod 2^32); the platform keeps the
  // pointer normalized modulo num_cores internally. Past the 2^32-cycle
  // wrap on a core count that does not divide 2^32, the truncated cycle
  // count's residue drifts from the true modular pointer, so nudge the
  // wire value within its congruence class — below the wrap it is exactly
  // the historical byte pattern.
  {
    const auto raw = static_cast<std::uint32_t>(counters_.cycles);
    std::uint64_t wire = static_cast<std::uint64_t>(raw) -
                         raw % config_.num_cores + rr_pointer_;
    if (wire > 0xFFFFFFFFull) wire -= config_.num_cores;
    snap.rr_pointer = static_cast<unsigned>(wire);
  }
  snap.fast_forwarded_cycles = fast_forwarded_cycles_;

  // Sparse DM dump: maximal runs of non-zero words.
  const std::uint32_t dm_size = dm_.size();
  for (std::uint32_t addr = 0; addr < dm_size;) {
    if (dm_.read(addr) == 0) {
      ++addr;
      continue;
    }
    DmRun run;
    run.addr = addr;
    while (addr < dm_size && dm_.read(addr) != 0) run.words.push_back(dm_.read(addr++));
    snap.dm_runs.push_back(std::move(run));
  }
  return snap;
}

void Platform::restore_snapshot(const Snapshot& snapshot) {
  if (!(simulated_config(config_) == simulated_config(snapshot.config)))
    throw std::invalid_argument(
        "snapshot: platform configuration mismatch (snapshot was taken on a "
        "differently configured platform)");
  if (snapshot.im_fingerprint != im_.fingerprint())
    throw std::invalid_argument(
        "snapshot: loaded program mismatch (image fingerprint differs)");
  if (snapshot.cores.size() != cores_.size() ||
      snapshot.policy_groups.size() != policy_groups_.size() ||
      snapshot.active_policy_groups > policy_groups_.size())
    throw std::invalid_argument("snapshot: malformed state record");
  // The D-Xbar walks a group's masks as core indices.
  const std::uint64_t all_cores = ~std::uint64_t{0} >> (64 - cores_.size());
  for (const PolicyGroupSnapshot& group : snapshot.policy_groups) {
    if ((group.member_mask & ~all_cores) != 0 ||
        (group.unserved_mask & ~group.member_mask) != 0)
      throw std::invalid_argument(
          "snapshot: policy group names a core outside the platform");
  }

  cores_ = snapshot.cores;
  policy_groups_ = snapshot.policy_groups;
  active_policy_groups_ = snapshot.active_policy_groups;

  counters_ = snapshot.counters;
  synchronizer_.restore_state(snapshot.sync);

  pending_stop_.reset();
  if (snapshot.has_pending_stop) pending_stop_ = snapshot.pending_stop;
  was_lockstep_ = snapshot.was_lockstep;
  // The wire value is the raw accumulator; only its residue matters for
  // arbitration, and normalizing here keeps it equivalent forever.
  rr_pointer_ = snapshot.rr_pointer % config_.num_cores;
  fast_forwarded_cycles_ = snapshot.fast_forwarded_cycles;
  burst_cycles_ = 0;  // host-side accounting, not simulated state
  fetch_region_cycles_ = 0;
  last_policy_latch_retired_.assign(cores_.size(), kNoPolicyLatch);

  // Derived scheduling state: population counts, the active-core list, and
  // the lazy sleep attribution (the restored per-core counters are fully
  // settled, so crediting resumes at the next tick).
  in_tick_ = false;
  active_this_cycle_.fill(0);
  touched_cores_.clear();
  rebuild_schedule_state();
  for (unsigned i = 0; i < cores_.size(); ++i) {
    sleep_pending_from_[i] = counters_.cycles + 1;
  }

  dm_.clear();
  for (const DmRun& run : snapshot.dm_runs) {
    for (std::size_t i = 0; i < run.words.size(); ++i)
      dm_.write(run.addr + static_cast<std::uint32_t>(i), run.words[i]);
  }
}

// --- state comparison and diffing --------------------------------------------

PlatformConfig simulated_config(PlatformConfig config) {
  config.fast_forward = true;
  return config;
}

Snapshot simulated_state(Snapshot snapshot) {
  snapshot.config = simulated_config(snapshot.config);
  snapshot.fast_forwarded_cycles = 0;
  return snapshot;
}

namespace {

/// The state `scope` compares: `simulated_state` without the excluded
/// fields. Listing exclusions, not compared fields, means a field added to
/// `Snapshot` is compared by default.
Snapshot compared_state(Snapshot snapshot, DivergenceScope scope) {
  snapshot = simulated_state(std::move(snapshot));
  snapshot.im_fingerprint = 0;
  if (scope == DivergenceScope::kCoreState) {
    snapshot.config = {};
    snapshot.dm_runs.clear();
    snapshot.host_words.clear();
  }
  return snapshot;
}

}  // namespace

bool snapshots_equal(const Snapshot& a, const Snapshot& b, DivergenceScope scope) {
  return compared_state(a, scope) == compared_state(b, scope);
}

std::string diff_snapshots(const Snapshot& a, const Snapshot& b,
                           unsigned max_items) {
  std::ostringstream out;
  unsigned items = 0;
  auto line = [&](const std::string& text) {
    if (items < max_items) out << text << "\n";
    ++items;
  };

  if (a.cycle() != b.cycle()) {
    line("cycle: " + std::to_string(a.cycle()) + " vs " +
         std::to_string(b.cycle()));
  }
  const std::size_t cores = std::min(a.cores.size(), b.cores.size());
  if (a.cores.size() != b.cores.size())
    line("core count: " + std::to_string(a.cores.size()) + " vs " +
         std::to_string(b.cores.size()));
  for (std::size_t i = 0; i < cores; ++i) {
    const CoreSnapshot& x = a.cores[i];
    const CoreSnapshot& y = b.cores[i];
    if (x == y) continue;
    std::ostringstream delta;
    delta << "core " << i << ":";
    if (x.status != y.status)
      delta << " status " << core_status_name(x.status) << " vs "
            << core_status_name(y.status);
    if (x.arch.pc != y.arch.pc)
      delta << " pc " << x.arch.pc << " vs " << y.arch.pc;
    for (unsigned reg = 1; reg < isa::kNumRegisters; ++reg) {
      if (x.arch.regs[reg] != y.arch.regs[reg])
        delta << " r" << reg << " " << x.arch.regs[reg] << " vs "
              << y.arch.regs[reg];
    }
    if (x.arch.flags != y.arch.flags) delta << " flags differ";
    if (x.bubble_cycles != y.bubble_cycles || x.ramp_cycles != y.ramp_cycles ||
        x.stall_age != y.stall_age)
      delta << " pipeline microstate differs";
    if (x.mem_addr != y.mem_addr || x.mem_is_store != y.mem_is_store ||
        x.load_latched != y.load_latched)
      delta << " pending-mem state differs";
    line(delta.str());
  }

  for (const CounterField& field : kCounterFields) {
    const std::uint64_t x = a.counters.*field.member;
    const std::uint64_t y = b.counters.*field.member;
    if (x != y)
      line(std::string("counter ") + field.name + ": " + std::to_string(x) +
           " vs " + std::to_string(y));
  }
  if (!(a.sync == b.sync)) line("synchronizer state differs");
  if (a.policy_groups != b.policy_groups) line("D-Xbar policy groups differ");

  // DM: compare through a dense walk of the sparse runs.
  if (a.dm_runs != b.dm_runs) {
    auto value_at = [](const Snapshot& snap, std::uint32_t addr) -> std::uint16_t {
      for (const DmRun& run : snap.dm_runs) {
        if (addr >= run.addr && addr < run.addr + run.words.size())
          return run.words[addr - run.addr];
      }
      return 0;
    };
    // Collect candidate addresses from both run sets.
    std::vector<std::uint32_t> addrs;
    for (const Snapshot* snap : {&a, &b}) {
      for (const DmRun& run : snap->dm_runs) {
        for (std::size_t i = 0; i < run.words.size(); ++i)
          addrs.push_back(run.addr + static_cast<std::uint32_t>(i));
      }
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    for (std::uint32_t addr : addrs) {
      const std::uint16_t x = value_at(a, addr);
      const std::uint16_t y = value_at(b, addr);
      if (x != y)
        line("dm[" + std::to_string(addr) + "]: " + std::to_string(x) + " vs " +
             std::to_string(y));
      if (items > max_items) break;
    }
  }

  if (items > max_items)
    out << "... (" << (items - max_items) << " more differences)\n";
  return out.str();
}

// --- file I/O ----------------------------------------------------------------

void write_snapshot_file(const std::string& path, const Snapshot& snapshot) {
  util::write_file_atomic(path, snapshot.serialize());
}

Snapshot read_snapshot_file(const std::string& path) {
  return Snapshot::deserialize(util::read_file_bytes(path));
}

}  // namespace ulpsync::sim
