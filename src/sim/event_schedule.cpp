#include "sim/event_schedule.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/wire.h"

namespace ulpsync::sim {

namespace {

// "ULPEVT1\n" — like the spool bundle magic, the version is also in the
// magic so a hex dump identifies the format at a glance.
constexpr util::Magic kMagic = {'U', 'L', 'P', 'E', 'V', 'T', '1', '\n'};

void encode_result(util::WireWriter& w, const RunResult& result) {
  w.u8(static_cast<std::uint8_t>(result.status));
  w.u64(result.cycles);
  w.u32(result.trap_core);
  w.u8(static_cast<std::uint8_t>(result.trap));
  w.u32(result.trap_pc);
}

RunResult decode_result(util::WireReader& r) {
  RunResult result;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(RunResult::Status::kTrap))
    throw std::invalid_argument("event schedule: invalid result status");
  result.status = static_cast<RunResult::Status>(status);
  result.cycles = r.u64();
  result.trap_core = r.u32();
  const std::uint8_t trap = r.u8();
  if (trap > static_cast<std::uint8_t>(TrapKind::kSyncWithoutHardware))
    throw std::invalid_argument("event schedule: invalid trap kind");
  result.trap = static_cast<TrapKind>(trap);
  result.trap_pc = r.u32();
  return result;
}

// Delivers one recorded event through the public host API (no sink is
// attached during replay, so nothing re-records).
void deliver_event(Platform& platform, const ExternalEvent& event) {
  switch (event.kind) {
    case EventKind::kDmWrite:
      platform.dm_write(event.addr, event.word);
      break;
    case EventKind::kDmWriteBlock:
      platform.dm_write_block(event.addr, event.words);
      break;
    case EventKind::kInterrupt:
      platform.interrupt(event.core);
      break;
    case EventKind::kInterruptAll:
      platform.interrupt_all();
      break;
  }
}

// Replay delivers each event on its exact cycle, so an event recorded
// behind an earlier one could never be delivered and would block every
// later event.
void check_ordered(const std::vector<ExternalEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].cycle < events[i - 1].cycle)
      throw std::invalid_argument(
          "event schedule not ordered: event at cycle " +
          std::to_string(events[i].cycle) + " recorded after cycle " +
          std::to_string(events[i - 1].cycle));
  }
}

}  // namespace

std::vector<std::uint8_t> EventSchedule::serialize() const {
  return util::seal(kMagic, kFormatVersion, [&](util::WireWriter& w) {
    w.u64(im_fingerprint);
    w.u64(events.size());
    for (const ExternalEvent& event : events) {
      w.u8(static_cast<std::uint8_t>(event.kind));
      w.u64(event.cycle);
      switch (event.kind) {
        case EventKind::kDmWrite:
          w.u32(event.addr);
          w.u16(event.word);
          break;
        case EventKind::kDmWriteBlock:
          w.u32(event.addr);
          w.u32(static_cast<std::uint32_t>(event.words.size()));
          for (const std::uint16_t word : event.words) w.u16(word);
          break;
        case EventKind::kInterrupt:
          w.u32(event.core);
          break;
        case EventKind::kInterruptAll:
          break;
      }
    }
    encode_result(w, final_result);
    w.u64(final_state_hash);
    w.u64(final_host_words.size());
    for (const std::uint64_t word : final_host_words) w.u64(word);
  });
}

EventSchedule EventSchedule::deserialize(std::span<const std::uint8_t> bytes) {
  util::WireReader r =
      util::unseal(bytes, kMagic, kFormatVersion, "event schedule");
  EventSchedule schedule;
  schedule.im_fingerprint = r.u64();
  const std::uint64_t count = r.u64();
  // Each event is at least 9 bytes on the wire; a count beyond that bound
  // can only come from corruption the hash failed to catch.
  if (count > bytes.size() / 9)
    throw std::invalid_argument("event schedule: implausible event count");
  schedule.events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ExternalEvent event;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(EventKind::kInterruptAll))
      throw std::invalid_argument("event schedule: invalid event kind");
    event.kind = static_cast<EventKind>(kind);
    event.cycle = r.u64();
    switch (event.kind) {
      case EventKind::kDmWrite:
        event.addr = r.u32();
        event.word = r.u16();
        break;
      case EventKind::kDmWriteBlock: {
        event.addr = r.u32();
        const std::uint32_t words = r.u32();
        event.words.resize(words);
        for (std::uint32_t j = 0; j < words; ++j) event.words[j] = r.u16();
        break;
      }
      case EventKind::kInterrupt:
        event.core = r.u32();
        break;
      case EventKind::kInterruptAll:
        break;
    }
    schedule.events.push_back(std::move(event));
  }
  check_ordered(schedule.events);
  schedule.final_result = decode_result(r);
  if (!schedule.events.empty() &&
      schedule.final_result.cycles < schedule.events.back().cycle)
    throw std::invalid_argument("event schedule: final result before events");
  schedule.final_state_hash = r.u64();
  const std::uint64_t host_words = r.u64();
  if (host_words > bytes.size() / 8)
    throw std::invalid_argument("event schedule: implausible host word count");
  schedule.final_host_words.resize(static_cast<std::size_t>(host_words));
  for (std::uint64_t i = 0; i < host_words; ++i)
    schedule.final_host_words[i] = r.u64();
  if (!r.at_end())
    throw std::invalid_argument("event schedule: trailing bytes after image");
  return schedule;
}

std::uint64_t EventSchedule::content_hash() const {
  return util::fnv1a64(serialize());
}

std::uint64_t normalized_state_hash(const Snapshot& snapshot) {
  return simulated_state(snapshot).content_hash();
}

// --- recording ---------------------------------------------------------------

void EventRecorder::attach(Platform& platform) {
  platform_ = &platform;
  schedule_ = {};
  schedule_.im_fingerprint = platform.image_fingerprint();
  platform.set_event_sink(this);
}

void EventRecorder::on_dm_write(std::uint64_t cycle, std::uint32_t addr,
                                std::uint16_t value) {
  ExternalEvent event;
  event.kind = EventKind::kDmWrite;
  event.cycle = cycle;
  event.addr = addr;
  event.word = value;
  schedule_.events.push_back(std::move(event));
}

void EventRecorder::on_dm_write_block(std::uint64_t cycle, std::uint32_t addr,
                                      std::span<const std::uint16_t> words) {
  ExternalEvent event;
  event.kind = EventKind::kDmWriteBlock;
  event.cycle = cycle;
  event.addr = addr;
  event.words.assign(words.begin(), words.end());
  schedule_.events.push_back(std::move(event));
}

void EventRecorder::on_interrupt(std::uint64_t cycle, unsigned core) {
  ExternalEvent event;
  event.kind = EventKind::kInterrupt;
  event.cycle = cycle;
  event.core = core;
  schedule_.events.push_back(std::move(event));
}

void EventRecorder::on_interrupt_all(std::uint64_t cycle) {
  ExternalEvent event;
  event.kind = EventKind::kInterruptAll;
  event.cycle = cycle;
  schedule_.events.push_back(std::move(event));
}

EventSchedule EventRecorder::finish(const RunResult& result,
                                    std::span<const std::uint64_t> host_words) {
  schedule_.final_result = result;
  schedule_.final_state_hash =
      normalized_state_hash(platform_->save_snapshot());
  schedule_.final_host_words.assign(host_words.begin(), host_words.end());
  platform_->set_event_sink(nullptr);
  platform_ = nullptr;
  EventSchedule out = std::move(schedule_);
  schedule_ = {};
  return out;
}

// --- replay cursor -----------------------------------------------------------

ReplayCursor::ReplayCursor(Platform& platform, const EventSchedule& schedule,
                           std::span<const FaultAction> faults)
    : platform_(&platform),
      schedule_(&schedule),
      faults_(faults.begin(), faults.end()) {
  check_ordered(schedule.events);
  seek(platform.counters().cycles);
}

void ReplayCursor::deliver_due() {
  const std::uint64_t now = cycle();
  // 1. Recorded events due now, with wake faults rewriting the targeted
  //    interrupt: a broadcast becomes per-core wake-ups minus the faulted
  //    core (equivalent by construction — interrupt_all is per-core wakes
  //    in the same cycle), a single wake-up is suppressed, and a delayed
  //    one is re-scheduled.
  for (; next_event_ < schedule_->events.size() &&
         schedule_->events[next_event_].cycle == now;
       ++next_event_) {
    const ExternalEvent& event = schedule_->events[next_event_];
    const bool is_wake = event.kind == EventKind::kInterrupt ||
                         event.kind == EventKind::kInterruptAll;
    std::uint64_t suppressed = 0;  // one bit per faulted core
    if (is_wake) {
      for (const FaultAction& fault : faults_) {
        if (fault.kind == FaultAction::Kind::kDmFlip ||
            fault.event_index != next_event_)
          continue;
        if (event.kind == EventKind::kInterrupt && event.core != fault.core)
          continue;
        suppressed |= std::uint64_t{1} << fault.core;
        if (fault.kind != FaultAction::Kind::kDelayWake) continue;
        const std::pair<std::uint64_t, unsigned> wake{
            event.cycle + fault.delay, fault.core};
        pending_wakes_.insert(
            std::upper_bound(pending_wakes_.begin(), pending_wakes_.end(),
                             wake),
            wake);
      }
    }
    if (suppressed == 0) {
      deliver_event(*platform_, event);
    } else if (event.kind == EventKind::kInterruptAll) {
      for (unsigned core = 0; core < platform_->config().num_cores; ++core) {
        if ((suppressed >> core) & 1) continue;
        platform_->interrupt(core);
      }
    }
    // A suppressed kInterrupt delivers nothing.
  }
  // 2. DM corruptions due now — after the deposits of this cycle, so a
  //    flip at a deposit cycle corrupts the freshly written word. The XOR
  //    pattern covers `span` adjacent words (multi-bit / burst / row error
  //    models); words beyond the DM size are skipped, never wrapped.
  const std::uint32_t dm_words =
      platform_->config().dm_banks * platform_->config().dm_bank_words;
  for (const FaultAction& fault : faults_) {
    if (fault.kind != FaultAction::Kind::kDmFlip || fault.cycle != now)
      continue;
    const std::uint16_t pattern = fault.word_mask();
    for (std::uint32_t w = 0; w < std::max<std::uint32_t>(fault.span, 1);
         ++w) {
      const std::uint32_t addr = fault.addr + w;
      if (addr >= dm_words) break;
      platform_->dm_write(
          addr, static_cast<std::uint16_t>(platform_->dm_read(addr) ^
                                           pattern));
    }
  }
  // 3. Delayed wake-ups that have come due.
  while (!pending_wakes_.empty() && pending_wakes_.front().first == now) {
    platform_->interrupt(pending_wakes_.front().second);
    pending_wakes_.erase(pending_wakes_.begin());
  }
}

void ReplayCursor::advance_to(std::uint64_t target) {
  while (cycle() < target) {
    deliver_due();
    // Run to the next cycle anything external is due: the next event, DM
    // flip or delayed wake-up, or the target. Nothing external happens in
    // between, and stopping and resuming run() is bit-identical to one run.
    std::uint64_t stop = target;
    if (next_event_ < schedule_->events.size())
      stop = std::min(stop, schedule_->events[next_event_].cycle);
    if (!pending_wakes_.empty())
      stop = std::min(stop, pending_wakes_.front().first);
    for (const FaultAction& fault : faults_) {
      if (fault.kind == FaultAction::Kind::kDmFlip && fault.cycle > cycle())
        stop = std::min(stop, fault.cycle);
    }
    const RunResult slice = platform_->run(stop);
    if (cycle() == stop) continue;
    // run() cannot advance: every core is halted, trapped or asleep, or a
    // trap has ended the run. tick() still clocks the cycle.
    if (!first_short_) first_short_ = ShortSlice{stop, slice};
    platform_->tick();
  }
}

void ReplayCursor::seek(std::uint64_t at) {
  next_event_ = 0;
  while (next_event_ < schedule_->events.size() &&
         schedule_->events[next_event_].cycle < at)
    ++next_event_;
  pending_wakes_.clear();
  for (const FaultAction& fault : faults_) {
    if (fault.kind != FaultAction::Kind::kDelayWake) continue;
    if (fault.event_index >= schedule_->events.size()) continue;
    const std::uint64_t source = schedule_->events[fault.event_index].cycle;
    const std::uint64_t due = source + fault.delay;
    // Re-arm wakes whose source interrupt was already delivered before the
    // checkpoint but whose delayed delivery had not yet happened.
    if (source < at && due >= at)
      pending_wakes_.emplace_back(due, fault.core);
  }
  std::sort(pending_wakes_.begin(), pending_wakes_.end());
}

bool ReplayCursor::settled() const {
  for (unsigned core = 0; core < platform_->config().num_cores; ++core) {
    const CoreStatus status = platform_->core_status(core);
    if (status != CoreStatus::kHalted && status != CoreStatus::kTrapped)
      return false;
  }
  if (next_event_ < schedule_->events.size() || !pending_wakes_.empty())
    return false;
  const std::uint64_t now = platform_->counters().cycles;
  for (const FaultAction& fault : faults_) {
    if (fault.kind == FaultAction::Kind::kDmFlip && fault.cycle >= now)
      return false;
  }
  return true;
}

// --- exact replay ------------------------------------------------------------

ReplayOutcome replay_schedule(Platform& platform,
                              const EventSchedule& schedule) {
  ReplayOutcome out;
  if (platform.image_fingerprint() != schedule.im_fingerprint) {
    out.error = "image fingerprint mismatch: platform " +
                util::hex64(platform.image_fingerprint()) + ", schedule " +
                util::hex64(schedule.im_fingerprint);
    return out;
  }
  const std::uint64_t end = schedule.final_result.cycles;
  try {
    ReplayCursor cursor(platform, schedule, {});
    cursor.advance_to(end);
    const std::optional<ReplayCursor::ShortSlice>& stall = cursor.first_short_;
    if (stall && stall->bound < end) {
      out.error = "replay diverged from schedule: " +
                  stall->result.to_string() +
                  " before the event recorded at cycle " +
                  std::to_string(stall->bound);
      return out;
    }
    // The recording delivered the events due at `end` itself before it
    // stopped; advance_to leaves them to the cycle after.
    cursor.deliver_due();
    // A final slice that ends on its bound reports the exhausted bound,
    // not the stop reason the original saw under its larger budget: adopt
    // the recorded result. The final-state hash below still guards the
    // actual state (core statuses included).
    out.result = stall ? stall->result : schedule.final_result;
  } catch (const std::invalid_argument& error) {
    out.error = error.what();
    return out;
  }
  if (!(out.result == schedule.final_result))
    out.error = "replay final result mismatch: got " + out.result.to_string() +
                ", recorded " + schedule.final_result.to_string();
  out.final_state_matches =
      normalized_state_hash(platform.save_snapshot()) ==
      schedule.final_state_hash;
  if (out.error.empty() && !out.final_state_matches)
    out.error = "replay final state hash mismatch";
  return out;
}

// --- replay-aware divergence bisection ---------------------------------------

namespace {

// Snapshot comparison with the image fingerprint neutralized: IM faults
// load a different image by construction, and the bisection must report
// the first *architectural* effect, not the injection itself.
bool replay_states_equal(const Snapshot& a, const Snapshot& b,
                         DivergenceScope scope) {
  if (scope == DivergenceScope::kCoreState) return snapshots_equal(a, b, scope);
  Snapshot x = simulated_state(a);
  Snapshot y = simulated_state(b);
  x.im_fingerprint = y.im_fingerprint = 0;
  return x == y;
}

std::string replay_states_diff(Snapshot a, Snapshot b) {
  a.im_fingerprint = b.im_fingerprint = 0;
  return diff_snapshots(a, b);
}

ReplayDivergence make_divergence(Snapshot a, Snapshot b) {
  ReplayDivergence report;
  report.diverged = true;
  report.first_divergent_cycle = a.cycle();
  report.delta = replay_states_diff(a, b);
  report.clean_state = std::move(a);
  report.faulty_state = std::move(b);
  return report;
}

}  // namespace

ReplayDivergence find_first_divergence_replayed(ReplayCursor& clean,
                                                ReplayCursor& faulty,
                                                std::uint64_t max_cycles,
                                                DivergenceScope scope,
                                                std::uint64_t stride) {
  if (stride == 0)
    throw std::invalid_argument(
        "find_first_divergence_replayed: stride must be positive");
  Platform& a = clean.platform();
  Platform& b = faulty.platform();
  Snapshot last_a = a.save_snapshot();
  Snapshot last_b = b.save_snapshot();
  // Comparable: same simulated configuration and the same start cycle.
  // The image fingerprint is deliberately NOT required to match (IM
  // faults).
  if (!(simulated_config(last_a.config) == simulated_config(last_b.config)) ||
      last_a.cycle() != last_b.cycle())
    throw std::invalid_argument(
        "find_first_divergence_replayed: platforms are not comparable "
        "(different config or start cycle)");
  if (!replay_states_equal(last_a, last_b, scope))
    return make_divergence(std::move(last_a), std::move(last_b));

  while (last_a.cycle() < max_cycles) {
    const std::uint64_t target = std::min(max_cycles, last_a.cycle() + stride);
    clean.advance_to(target);
    faulty.advance_to(target);
    Snapshot now_a = a.save_snapshot();
    Snapshot now_b = b.save_snapshot();
    if (!replay_states_equal(now_a, now_b, scope)) {
      // Mismatch inside (last, target]: replay from the last equal pair,
      // single-stepping to the exact first divergent cycle.
      a.restore_snapshot(last_a);
      clean.seek(last_a.cycle());
      b.restore_snapshot(last_b);
      faulty.seek(last_b.cycle());
      while (a.counters().cycles < target) {
        const std::uint64_t step = a.counters().cycles + 1;
        clean.advance_to(step);
        faulty.advance_to(step);
        Snapshot step_a = a.save_snapshot();
        Snapshot step_b = b.save_snapshot();
        if (!replay_states_equal(step_a, step_b, scope))
          return make_divergence(std::move(step_a), std::move(step_b));
      }
      // Unreachable: the checkpoint mismatch must reappear in the replay.
      return make_divergence(std::move(now_a), std::move(now_b));
    }
    last_a = std::move(now_a);
    last_b = std::move(now_b);
    if (clean.settled() && faulty.settled()) break;  // nothing can change
  }
  return {};
}

}  // namespace ulpsync::sim
