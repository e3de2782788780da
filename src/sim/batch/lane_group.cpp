#include "sim/batch/lane_group.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>

#include "sim/platform.h"

namespace ulpsync::sim::batch {

namespace {

std::string at_core(unsigned core, const std::string& what) {
  std::ostringstream out;
  out << "core " << core << ": " << what;
  return out.str();
}

}  // namespace

LaneGroup::LaneGroup(unsigned lanes, unsigned cores, std::uint32_t dm_words)
    : lanes_(lanes),
      cores_(cores),
      dm_words_(dm_words),
      arch_(static_cast<std::size_t>(lanes) * cores),
      dm_(static_cast<std::size_t>(lanes) * dm_words, 0),
      last_store_(static_cast<std::size_t>(lanes) * cores, 0),
      last_latched_(static_cast<std::size_t>(lanes) * cores, 0),
      halted_(static_cast<std::size_t>(lanes) * cores, 0),
      window_loads_(static_cast<std::size_t>(lanes) * cores),
      journals_(lanes) {}

void LaneGroup::init_from(const Snapshot& boundary) {
  assert(boundary.cores.size() == cores_);
  for (unsigned lane = 0; lane < lanes_; ++lane) {
    for (unsigned core = 0; core < cores_; ++core) {
      const CoreSnapshot& src = boundary.cores[core];
      const std::size_t idx = core_index(lane, core);
      arch_[idx] = src.arch;
      last_store_[idx] = src.store_data;
      last_latched_[idx] = src.latched_load;
      halted_[idx] = src.status == CoreStatus::kHalted ? 1 : 0;
    }
    std::uint16_t* mem = dm(lane);
    std::fill(mem, mem + dm_words_, std::uint16_t{0});
    for (const DmRun& run : boundary.dm_runs) {
      assert(run.addr + run.words.size() <= dm_words_);
      std::copy(run.words.begin(), run.words.end(), mem + run.addr);
    }
  }
}

void LaneGroup::begin_window(unsigned lane) {
  LaneJournal& j = journals_[lane];
  j.undo.clear();
  j.block_undo.clear();
  j.block_words.clear();
  const std::size_t base = core_index(lane, 0);
  j.arch_backup.assign(arch_.begin() + base, arch_.begin() + base + cores_);
  j.store_backup.assign(last_store_.begin() + base,
                        last_store_.begin() + base + cores_);
  j.latched_backup.assign(last_latched_.begin() + base,
                          last_latched_.begin() + base + cores_);
  j.halted_backup.assign(halted_.begin() + base,
                         halted_.begin() + base + cores_);
}

void LaneGroup::deposit_block(unsigned lane, std::uint32_t addr,
                              std::span<const std::uint16_t> words) {
  assert(addr + words.size() <= dm_words_);
  LaneJournal& j = journals_[lane];
  std::uint16_t* mem = dm(lane) + addr;
  // Bulk pre-image instead of per-word undo entries: deposits are the
  // bulk of a window's journal and never overlap each other.
  j.block_undo.push_back({addr, static_cast<std::uint32_t>(j.block_words.size()),
                          static_cast<std::uint32_t>(words.size())});
  j.block_words.insert(j.block_words.end(), mem, mem + words.size());
  std::copy(words.begin(), words.end(), mem);
}

void LaneGroup::rollback(unsigned lane) {
  LaneJournal& j = journals_[lane];
  std::uint16_t* mem = dm(lane);
  // Reverse order so overlapping writes unwind to the original words:
  // in-window stores first, then the block deposits that preceded them.
  for (auto it = j.undo.rbegin(); it != j.undo.rend(); ++it) {
    mem[it->first] = it->second;
  }
  j.undo.clear();
  for (auto it = j.block_undo.rbegin(); it != j.block_undo.rend(); ++it) {
    std::copy(j.block_words.begin() + it->offset,
              j.block_words.begin() + it->offset + it->len, mem + it->addr);
  }
  j.block_undo.clear();
  j.block_words.clear();
  const std::size_t base = core_index(lane, 0);
  std::copy(j.arch_backup.begin(), j.arch_backup.end(), arch_.begin() + base);
  std::copy(j.store_backup.begin(), j.store_backup.end(),
            last_store_.begin() + base);
  std::copy(j.latched_backup.begin(), j.latched_backup.end(),
            last_latched_.begin() + base);
  std::copy(j.halted_backup.begin(), j.halted_backup.end(),
            halted_.begin() + base);
}

// `flatten` forces `sim::execute` (and `complete_load`) inline into the
// emulation loops below. The executor's switch is past GCC's inline growth
// budget, so without it every emulated instruction pays an out-of-line call
// plus a 24-byte `ExecResult` returned through memory — and `state` escapes
// to the stack instead of living in registers. Inlined, each call site keeps
// only the result fields it reads (the kAlu site keeps none).
[[gnu::flatten]]
LaneWindowResult LaneGroup::run_window(unsigned lane, const DecodedImage& image,
                                       WindowTraces& record,
                                       std::uint64_t budget) {
  record.assign(cores_, {});

  LaneJournal& j = journals_[lane];
  std::uint16_t* mem = dm(lane);

  for (unsigned core = 0; core < cores_; ++core) {
    const std::size_t idx = core_index(lane, core);
    window_loads_[idx].clear();

    // A halted core retires nothing; its trace stays empty.
    bool done = halted_[idx] != 0;

    CoreArchState& state = arch_[idx];
    std::uint64_t executed = 0;
    while (!done) {
      if (executed >= budget) {
        return {LaneWindowOutcome::kBail,
                at_core(core, "window instruction budget exceeded")};
      }
      if (!image.in_program(state.pc)) {
        return {LaneWindowOutcome::kBail, at_core(core, "pc left the program")};
      }

      TraceEvent event{state.pc, TraceEvent::kNoMem};
      const ExecResult result = execute(state, image.at(state.pc));
      ++executed;
      ++emulated_instructions_;

      switch (result.action) {
        case ExecAction::kAdvance:
          state.pc = result.next_pc;
          break;
        case ExecAction::kMemLoad: {
          if (result.mem_addr >= dm_words_) {
            return {LaneWindowOutcome::kBail,
                    at_core(core, "load address out of range")};
          }
          event.mem = result.mem_addr;
          const std::uint16_t value = mem[result.mem_addr];
          complete_load(state, result.load_reg, value);
          // `last_latched_` is *not* updated here: the platform latches a
          // load's value only on the policy-group broadcast path, which
          // depends on cross-core timing the emulator cannot see. The
          // events are recorded and patched in by `apply_policy_latch`
          // from the real platform's accounting.
          window_loads_[idx].emplace_back(executed - 1, value);
          state.pc = result.next_pc;
          break;
        }
        case ExecAction::kMemStore: {
          if (result.mem_addr >= dm_words_) {
            return {LaneWindowOutcome::kBail,
                    at_core(core, "store address out of range")};
          }
          event.mem = result.mem_addr | TraceEvent::kWriteBit;
          j.undo.emplace_back(result.mem_addr, mem[result.mem_addr]);
          mem[result.mem_addr] = result.store_data;
          last_store_[idx] = result.store_data;
          state.pc = result.next_pc;
          break;
        }
        case ExecAction::kSleep:
          // The platform sets pc past SLEEP on retirement, then gates the
          // core — it resumes there on the next interrupt.
          state.pc = result.next_pc;
          done = true;
          break;
        case ExecAction::kHalt:
          // HALT retires without advancing pc (mirrors Platform's retire).
          halted_[idx] = 1;
          done = true;
          break;
        case ExecAction::kSync:
          return {LaneWindowOutcome::kBail,
                  at_core(core, "synchronizer op (not emulated)")};
        case ExecAction::kTrap:
          return {LaneWindowOutcome::kBail,
                  at_core(core, "architectural trap")};
      }

      record[core].push_back(event);
    }
  }
  return {LaneWindowOutcome::kCompleted, {}};
}

void compile_window(const DecodedImage& image, const WindowTraces& traces,
                    WindowProgram& ops) {
  using isa::Opcode;
  ops.resize(traces.size());
  for (std::size_t core = 0; core < traces.size(); ++core) {
    const auto& trace = traces[core];
    ops[core].clear();
    ops[core].reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const TraceEvent& event = trace[i];
      WindowOp op;
      op.instr = image.at(event.pc);
      op.pc = event.pc;
      switch (op.instr.op) {
        case Opcode::kLd:
        case Opcode::kLdx:
          op.kind = MicroKind::kLoad;
          op.operand = event.mem;
          break;
        case Opcode::kSt:
        case Opcode::kStx:
          op.kind = MicroKind::kStore;
          op.operand = event.mem & ~TraceEvent::kWriteBit;
          break;
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
        case Opcode::kBltu:
        case Opcode::kBgeu:
        case Opcode::kBra:
        case Opcode::kJal:
        case Opcode::kJr:
          // A control op is never a core's last: the reference loop only
          // ends on SLEEP/HALT, so `i + 1` exists.
          op.kind = MicroKind::kControl;
          op.operand = i + 1 < trace.size() ? trace[i + 1].pc : 0;
          break;
        case Opcode::kSleep:
          op.kind = MicroKind::kSleepEnd;
          break;
        case Opcode::kHalt:
          op.kind = MicroKind::kHaltEnd;
          break;
        case Opcode::kSinc:
        case Opcode::kSdec:
          op.kind = MicroKind::kImpossible;
          break;
        default:
          // CSRR/CSRW trap on bad CSR indices, but the index is an
          // immediate: the reference executed this very instruction
          // without trapping, so a follower cannot trap on it either.
          op.kind = MicroKind::kAlu;
          break;
      }
      ops[core].push_back(op);
    }
  }
}

[[gnu::flatten]]  // see run_window — keeps the interpreter call-free
void LaneGroup::run_window_ops(std::span<const unsigned> lanes,
                               const WindowProgram& ops,
                               std::vector<LaneWindowOutcome>& outcomes) {
  outcomes.assign(lanes.size(), LaneWindowOutcome::kCompleted);
  if (ops.size() != cores_) {
    // Cannot happen for a program compiled from this group's traces; a
    // foreign program is unanswerable for every lane.
    outcomes.assign(lanes.size(), LaneWindowOutcome::kBail);
    return;
  }

  for (unsigned core = 0; core < cores_; ++core) {
    const std::vector<WindowOp>& stream = ops[core];

    // Gather the lanes still matching the reference into the contiguous
    // scratch the op-major loop below runs over. A halted core retires
    // nothing; a live one retires at least its SLEEP — an empty/non-empty
    // mismatch (or a wrong resume pc) is a divergence.
    active_.clear();
    for (std::size_t s = 0; s < lanes.size(); ++s) {
      if (outcomes[s] != LaneWindowOutcome::kCompleted) continue;
      const unsigned lane = lanes[s];
      const std::size_t idx = core_index(lane, core);
      window_loads_[idx].clear();
      if (halted_[idx] != 0) {
        if (!stream.empty()) outcomes[s] = LaneWindowOutcome::kDiverged;
        continue;
      }
      if (stream.empty() || arch_[idx].pc != stream.front().pc) {
        outcomes[s] = LaneWindowOutcome::kDiverged;
        continue;
      }
      active_.push_back({arch_[idx], dm(lane), &journals_[lane].undo,
                         &window_loads_[idx], idx,
                         static_cast<std::uint32_t>(s)});
    }
    if (active_.empty()) continue;

    // Op-major walk: each op is fetched and dispatched once, then applied
    // to every active lane — the stream, the decode and the two jump
    // tables are shared across the group; only the register/memory effect
    // is per lane. A diverging lane swap-removes from the scratch (its
    // partial state is discarded by the caller's rollback) and the walk
    // carries on with the rest. `state.pc` is only maintained where
    // `execute` consumes it (control ops); between checkpoints the stream
    // position is the pc.
    const auto drop = [this](std::size_t i, LaneWindowOutcome why,
                             std::vector<LaneWindowOutcome>& out) {
      out[active_[i].slot] = why;
      active_[i] = active_.back();
      active_.pop_back();
    };
    for (std::size_t j = 0; j < stream.size() && !active_.empty(); ++j) {
      const WindowOp& op = stream[j];
      switch (op.kind) {
        case MicroKind::kAlu:
          // The result is dead for pure ops — the compiler strips the
          // unused action/address plumbing, leaving the register effect.
          for (ActiveLane& a : active_) (void)execute(a.state, op.instr);
          break;
        case MicroKind::kControl:
          for (std::size_t i = 0; i < active_.size();) {
            ActiveLane& a = active_[i];
            a.state.pc = op.pc;  // branch base / JAL link value
            const ExecResult result = execute(a.state, op.instr);
            if (result.next_pc != op.operand) {
              drop(i, LaneWindowOutcome::kDiverged, outcomes);
            } else {
              ++i;
            }
          }
          break;
        case MicroKind::kLoad:
          for (std::size_t i = 0; i < active_.size();) {
            ActiveLane& a = active_[i];
            const ExecResult result = execute(a.state, op.instr);
            if (result.mem_addr != op.operand) {
              drop(i, LaneWindowOutcome::kDiverged, outcomes);
              continue;
            }
            // Equal addresses imply in-range: the reference was
            // bounds-checked while recording.
            const std::uint16_t value = a.mem[op.operand];
            complete_load(a.state, result.load_reg, value);
            a.loads->emplace_back(j, value);
            ++i;
          }
          break;
        case MicroKind::kStore:
          for (std::size_t i = 0; i < active_.size();) {
            ActiveLane& a = active_[i];
            const ExecResult result = execute(a.state, op.instr);
            if (result.mem_addr != op.operand) {
              drop(i, LaneWindowOutcome::kDiverged, outcomes);
              continue;
            }
            a.undo->emplace_back(op.operand, a.mem[op.operand]);
            a.mem[op.operand] = result.store_data;
            last_store_[a.idx] = result.store_data;
            ++i;
          }
          break;
        case MicroKind::kSleepEnd:
          // The platform parks a sleeping core past its SLEEP; always the
          // stream's last op, so the loop ends here.
          for (ActiveLane& a : active_) a.state.pc = op.pc + 1;
          break;
        case MicroKind::kHaltEnd:
          // HALT retires without advancing pc (mirrors Platform's retire).
          for (ActiveLane& a : active_) {
            a.state.pc = op.pc;
            halted_[a.idx] = 1;
          }
          break;
        case MicroKind::kImpossible:
          for (std::size_t i = 0; i < active_.size();) {
            drop(i, LaneWindowOutcome::kDiverged, outcomes);
          }
          break;
      }
    }
    for (const ActiveLane& a : active_) {
      arch_[a.idx] = a.state;
      emulated_instructions_ += stream.size();
    }
  }
}

bool LaneGroup::apply_policy_latch(unsigned lane, unsigned core,
                                   std::uint64_t event_index) {
  const std::size_t idx = core_index(lane, core);
  // Windows retire few loads; the linear scan beats a lookup structure.
  for (const auto& [ordinal, value] : window_loads_[idx]) {
    if (ordinal == event_index) {
      last_latched_[idx] = value;
      return true;
    }
  }
  return false;
}

Snapshot LaneGroup::materialize(unsigned lane, const Snapshot& boundary) const {
  Snapshot out = boundary;
  for (unsigned core = 0; core < cores_; ++core) {
    const std::size_t idx = core_index(lane, core);
    CoreSnapshot& dst = out.cores[core];
    dst.arch = arch_[idx];
    dst.store_data = last_store_[idx];
    dst.latched_load = last_latched_[idx];
  }
  // The boundary's DM payload is replaced wholesale with the lane's (pass
  // a boundary with pre-cleared runs to skip copying words only to drop
  // them — see BatchEngine's lane template).
  out.dm_runs.clear();
  const std::uint16_t* mem = dm(lane);
  std::uint32_t addr = 0;
  while (addr < dm_words_) {
    // Zero gaps are long (untouched banks); skip them four words at a
    // time before refining to the word that opens the run.
    while (addr + 4 <= dm_words_) {
      std::uint64_t quad;
      std::memcpy(&quad, mem + addr, sizeof quad);
      if (quad != 0) break;
      addr += 4;
    }
    while (addr < dm_words_ && mem[addr] == 0) ++addr;
    const std::uint32_t start = addr;
    while (addr < dm_words_ && mem[addr] != 0) ++addr;
    if (start == addr) break;
    DmRun run;
    run.addr = start;
    run.words.assign(mem + start, mem + addr);
    out.dm_runs.push_back(std::move(run));
  }
  return out;
}

std::string LaneGroup::compare_with(unsigned lane,
                                    const Snapshot& boundary) const {
  if (boundary.cores.size() != cores_) return "core count mismatch";
  for (unsigned core = 0; core < cores_; ++core) {
    const std::size_t idx = core_index(lane, core);
    const CoreSnapshot& ref = boundary.cores[core];
    if (ref.status != CoreStatus::kSleeping &&
        ref.status != CoreStatus::kHalted) {
      return at_core(core, "not at an all-asleep boundary");
    }
    if (ref.load_latched) {
      return at_core(core, "load still latched at the boundary");
    }
    if ((ref.status == CoreStatus::kHalted) != (halted_[idx] != 0)) {
      return at_core(core, "halted state mismatch");
    }
    if (!(ref.arch == arch_[idx])) {
      return at_core(core, "architectural state mismatch");
    }
    if (ref.store_data != last_store_[idx]) {
      return at_core(core, "store microstate mismatch");
    }
    if (ref.latched_load != last_latched_[idx]) {
      return at_core(core, "load microstate mismatch");
    }
  }

  std::vector<std::uint16_t> expected(dm_words_, 0);
  for (const DmRun& run : boundary.dm_runs) {
    if (run.addr + run.words.size() > dm_words_) return "dm run out of range";
    std::copy(run.words.begin(), run.words.end(), expected.begin() + run.addr);
  }
  const std::uint16_t* mem = dm(lane);
  for (std::uint32_t addr = 0; addr < dm_words_; ++addr) {
    if (expected[addr] != mem[addr]) {
      std::ostringstream out;
      out << "dm[" << addr << "] mismatch: platform " << expected[addr]
          << ", lane " << mem[addr];
      return out.str();
    }
  }
  return {};
}

std::string check_rw_disjoint(const WindowTraces& traces) {
  struct Access {
    std::uint32_t addr;
    std::uint32_t core;
    bool write;
  };
  std::vector<Access> accesses;
  for (std::uint32_t core = 0; core < traces.size(); ++core) {
    for (const TraceEvent& event : traces[core]) {
      if (event.mem == TraceEvent::kNoMem) continue;
      accesses.push_back({event.mem & ~TraceEvent::kWriteBit, core,
                          (event.mem & TraceEvent::kWriteBit) != 0});
    }
  }
  std::sort(accesses.begin(), accesses.end(),
            [](const Access& a, const Access& b) {
              return a.addr != b.addr ? a.addr < b.addr : a.core < b.core;
            });
  std::size_t i = 0;
  while (i < accesses.size()) {
    std::size_t end = i;
    bool written = false;
    bool shared = false;
    while (end < accesses.size() && accesses[end].addr == accesses[i].addr) {
      written = written || accesses[end].write;
      shared = shared || accesses[end].core != accesses[i].core;
      ++end;
    }
    if (written && shared) {
      std::ostringstream out;
      out << "dm[" << accesses[i].addr
          << "] written and touched by more than one core within a window";
      return out.str();
    }
    i = end;
  }
  return {};
}

}  // namespace ulpsync::sim::batch
