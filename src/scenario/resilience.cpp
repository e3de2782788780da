#include "scenario/resilience.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/checkpoint_ring.h"
#include "scenario/transport.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace {

constexpr util::Magic kCampaignMagic = {'U', 'L', 'P', 'C',
                                        'A', 'M', 'P', '\n'};
constexpr std::uint32_t kCampaignVersion = 1;

/// "-" for an unspecified (0) voltage, else a fixed 4-decimal rendering —
/// locale-free, so campaign CSVs are byte-stable across hosts.
std::string voltage_str(double voltage) {
  if (voltage == 0.0) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4f", voltage);
  return buffer;
}

std::string rate_str(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", rate);
  return buffer;
}

std::string csv_safe(std::string text) {
  const std::size_t line_end = text.find('\n');
  if (line_end != std::string::npos) text.resize(line_end);
  for (char& c : text) {
    if (c == ',') c = ';';
  }
  return text;
}

/// splitmix64 finalizer — the counter hash behind rate-mode thinning.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One uniform in [0, 1) per (seed, event, word, bit) candidate. Crucially
/// voltage-independent: rate mode injects a candidate iff its uniform
/// falls below p(V), so a higher voltage's injected set is a subset of a
/// lower voltage's — the monotone-density guarantee.
double candidate_uniform(std::uint64_t seed, std::uint64_t event,
                         std::uint64_t word, std::uint64_t bit) {
  std::uint64_t h = seed ^ 0xC6A4A7935BD1E995ULL;
  h = mix64(h + event);
  h = mix64(h + word);
  h = mix64(h + bit);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_class_name(sim::FaultAction::Kind kind) {
  // Unconditional names: the old tool-local helper gated the kDropWake
  // name behind a caller flag and fell through to "?" — a fault's name
  // must depend on nothing but its kind.
  switch (kind) {
    case sim::FaultAction::Kind::kDmFlip: return "dm-flip";
    case sim::FaultAction::Kind::kDelayWake: return "wake-delay";
    case sim::FaultAction::Kind::kDropWake: return "wake-drop";
  }
  return "?";
}

const char* error_model_name(ErrorModel model) {
  switch (model) {
    case ErrorModel::kDmSingle: return "dm";
    case ErrorModel::kDmMulti: return "dm-multi";
    case ErrorModel::kDmBurst: return "dm-burst";
    case ErrorModel::kDmRow: return "dm-row";
    case ErrorModel::kIm: return "im";
    case ErrorModel::kWakeDelay: return "wake-delay";
    case ErrorModel::kWakeDrop: return "wake-drop";
    case ErrorModel::kRate: return "rate";
  }
  return "?";
}

std::optional<ErrorModel> parse_error_model(const std::string& name) {
  for (const ErrorModel model :
       {ErrorModel::kDmSingle, ErrorModel::kDmMulti, ErrorModel::kDmBurst,
        ErrorModel::kDmRow, ErrorModel::kIm, ErrorModel::kWakeDelay,
        ErrorModel::kWakeDrop, ErrorModel::kRate}) {
    if (name == error_model_name(model)) return model;
  }
  return std::nullopt;
}

std::vector<ErrorModel> parse_error_models(const std::string& csv) {
  std::vector<ErrorModel> models;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto model = parse_error_model(item);
    if (!model) throw std::runtime_error("unknown fault class: " + item);
    models.push_back(*model);
  }
  return models;
}

std::vector<double> parse_voltage_list(const std::string& csv) {
  std::vector<double> volts;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !(v > 0.0)) {
      throw std::runtime_error("malformed voltage: " + item);
    }
    volts.push_back(v);
  }
  return volts;
}

// --- campaign expansion ------------------------------------------------------

namespace {

/// Event-index pools the sampled models draw targets from.
struct TargetPools {
  std::vector<std::size_t> deposits;
  std::vector<std::size_t> wake_events;
};

TargetPools collect_targets(const sim::EventSchedule& schedule) {
  TargetPools pools;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    switch (schedule.events[i].kind) {
      case sim::EventKind::kDmWrite:
      case sim::EventKind::kDmWriteBlock:
        pools.deposits.push_back(i);
        break;
      case sim::EventKind::kInterrupt:
      case sim::EventKind::kInterruptAll:
        pools.wake_events.push_back(i);
        break;
    }
  }
  return pools;
}

/// Samples the DM word of one recorded deposit: the flip lands at the
/// deposit's own delivery cycle, right after the write and before the
/// workload consumes the word, so it has a real chance to propagate.
void sample_deposit_target(const sim::EventSchedule& schedule,
                           const TargetPools& pools, util::Rng& rng,
                           sim::FaultAction& action) {
  const sim::ExternalEvent& deposit =
      schedule.events[pools.deposits[rng.next_below(pools.deposits.size())]];
  action.kind = sim::FaultAction::Kind::kDmFlip;
  action.addr = deposit.kind == sim::EventKind::kDmWriteBlock
                    ? deposit.addr + static_cast<std::uint32_t>(
                                         rng.next_below(deposit.words.size()))
                    : deposit.addr;
  action.cycle = deposit.cycle;
}

/// One sampled (non-rate) fault of `model`. Mirrors the draw order of the
/// original tool for the single-upset models, so one RNG stream per model
/// yields a stable, schedule-determined fault set.
CampaignFault sample_fault(const CampaignConfig& config,
                           const sim::EventSchedule& schedule,
                           const assembler::Program& program,
                           const TargetPools& pools, util::Rng& rng,
                           ErrorModel model, unsigned num_cores) {
  CampaignFault fault;
  fault.model = model;
  switch (model) {
    case ErrorModel::kDmSingle:
    case ErrorModel::kDmMulti:
    case ErrorModel::kDmBurst:
    case ErrorModel::kDmRow: {
      if (pools.deposits.empty()) {
        fault.no_target = true;
        break;
      }
      sample_deposit_target(schedule, pools, rng, fault.action);
      if (model == ErrorModel::kDmMulti) {
        // Adjacent bits of one word: a contiguous run of `multi_bits`.
        const unsigned bits =
            std::clamp<unsigned>(config.multi_bits, 1, 16);
        const unsigned start =
            static_cast<unsigned>(rng.next_below(17 - bits));
        fault.action.bit = start;
        fault.action.mask = static_cast<std::uint16_t>(
            ((std::uint32_t{1} << bits) - 1u) << start);
      } else {
        fault.action.bit = static_cast<unsigned>(rng.next_below(16));
      }
      if (model == ErrorModel::kDmBurst) {
        fault.action.span = std::max<std::uint32_t>(config.burst_words, 1);
      } else if (model == ErrorModel::kDmRow) {
        const std::uint32_t row = std::max<std::uint32_t>(config.row_words, 1);
        fault.action.addr -= fault.action.addr % row;
        fault.action.span = row;
      }
      break;
    }
    case ErrorModel::kIm: {
      fault.is_im_flip = true;
      if (program.image.empty()) {
        fault.no_target = true;
        break;
      }
      fault.im_word =
          static_cast<std::size_t>(rng.next_below(program.image.size()));
      fault.im_bit = static_cast<unsigned>(rng.next_below(32));
      break;
    }
    case ErrorModel::kWakeDelay:
    case ErrorModel::kWakeDrop: {
      if (pools.wake_events.empty()) {
        fault.action.kind = model == ErrorModel::kWakeDelay
                                ? sim::FaultAction::Kind::kDelayWake
                                : sim::FaultAction::Kind::kDropWake;
        fault.no_target = true;
        break;
      }
      const std::size_t index =
          pools.wake_events[rng.next_below(pools.wake_events.size())];
      const sim::ExternalEvent& event = schedule.events[index];
      fault.action.kind = model == ErrorModel::kWakeDelay
                              ? sim::FaultAction::Kind::kDelayWake
                              : sim::FaultAction::Kind::kDropWake;
      fault.action.event_index = index;
      fault.action.core =
          event.kind == sim::EventKind::kInterrupt
              ? static_cast<unsigned>(event.core)
              : static_cast<unsigned>(rng.next_below(std::max(1u, num_cores)));
      if (model == ErrorModel::kWakeDelay) {
        fault.action.delay = 1 + rng.next_below(256);
      }
      break;
    }
    case ErrorModel::kRate:
      break;  // handled by the caller's candidate sweep
  }
  return fault;
}

/// Rate mode: every bit of every recorded DM deposit is an upset
/// candidate for the retention window ending at its delivery; each is
/// thinned against p(V) with its voltage-independent uniform.
void expand_rate_faults(const CampaignConfig& config,
                        const sim::EventSchedule& schedule, double voltage,
                        std::vector<CampaignFault>& out) {
  const power::RetentionModel retention(config.retention);
  const double v = voltage == 0.0 ? config.retention.nominal_v : voltage;
  const double p =
      std::min(1.0, retention.upset_probability(v) * config.rate_scale);
  if (p <= 0.0) return;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const sim::ExternalEvent& event = schedule.events[i];
    std::size_t words = 0;
    if (event.kind == sim::EventKind::kDmWrite) {
      words = 1;
    } else if (event.kind == sim::EventKind::kDmWriteBlock) {
      words = event.words.size();
    } else {
      continue;
    }
    for (std::size_t w = 0; w < words; ++w) {
      for (unsigned bit = 0; bit < 16; ++bit) {
        if (candidate_uniform(config.seed, i, w, bit) >= p) continue;
        CampaignFault fault;
        fault.model = ErrorModel::kRate;
        fault.action.kind = sim::FaultAction::Kind::kDmFlip;
        fault.action.addr = event.addr + static_cast<std::uint32_t>(w);
        fault.action.bit = bit;
        fault.action.cycle = event.cycle;
        out.push_back(fault);
      }
    }
  }
}

}  // namespace

std::vector<CampaignFault> expand_campaign(const CampaignConfig& config,
                                           const sim::EventSchedule& schedule,
                                           const assembler::Program& program,
                                           unsigned num_cores) {
  const TargetPools pools = collect_targets(schedule);
  // Voltage axis outermost; an empty axis is one unspecified point.
  std::vector<double> voltages = config.voltages;
  if (voltages.empty()) voltages.push_back(0.0);

  std::vector<CampaignFault> faults;
  for (const double voltage : voltages) {
    for (const ErrorModel model : config.models) {
      if (model == ErrorModel::kRate) {
        std::vector<CampaignFault> rate;
        expand_rate_faults(config, schedule, voltage, rate);
        for (CampaignFault& fault : rate) {
          fault.voltage = voltage;
          faults.push_back(fault);
        }
        continue;
      }
      // One RNG stream per model, reseeded per voltage point from
      // voltage-independent inputs: the sampled fault set is identical at
      // every voltage, so across-voltage outcome differences can only
      // come from the rate model.
      util::Rng rng(config.seed ^ fnv1a64(error_model_name(model)));
      for (unsigned n = 0; n < config.count; ++n) {
        CampaignFault fault = sample_fault(config, schedule, program, pools,
                                           rng, model, num_cores);
        fault.voltage = voltage;
        faults.push_back(fault);
      }
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    faults[i].index = static_cast<std::uint64_t>(i);
  }
  return faults;
}

// --- outcome classification --------------------------------------------------

void classify_state_divergence(const sim::Snapshot& clean,
                               const sim::Snapshot& faulty,
                               FaultTrialRow& row) {
  if (clean.cores.size() != faulty.cores.size()) {
    // The snapshots are not comparable; never diff a common prefix.
    row.outcome = "core-count-mismatch";
    row.state_class = "core-count-mismatch";
    row.divergence_core = -1;
    return;
  }
  for (std::size_t i = 0; i < clean.cores.size(); ++i) {
    const sim::CoreSnapshot& a = clean.cores[i];
    const sim::CoreSnapshot& b = faulty.cores[i];
    if (a == b) continue;
    row.divergence_core = static_cast<int>(i);
    if (a.status != b.status) {
      row.state_class = "core-status";
    } else if (a.arch.pc != b.arch.pc) {
      row.state_class = "control-flow";
    } else if (a.arch.regs != b.arch.regs) {
      row.state_class = "dataflow";
    } else {
      row.state_class = "microstate";
    }
    return;
  }
  if (!(clean.counters == faulty.counters)) {
    row.state_class = "counters";
  } else if (!(clean.sync == faulty.sync)) {
    row.state_class = "sync";
  } else if (clean.policy_groups != faulty.policy_groups) {
    row.state_class = "xbar-policy";
  } else {
    row.state_class = "other";
  }
}

CleanReplay clean_replay(const RecordedRun& run, const Registry& registry,
                         std::uint64_t stride) {
  ReplayRig rig = make_replay_rig(run, registry);
  sim::ReplayCursor cursor(*rig.platform, run.schedule, {});
  const std::uint64_t end = run.schedule.final_result.cycles;
  CleanReplay clean;
  if (stride > 0) {
    clean.checkpoints.reserve(end / stride + 1);
    // Never past `end`, so `at` cannot overflow.
    for (std::uint64_t at = stride; at < end;
         at += std::min(stride, end - at)) {
      cursor.advance_to(at);
      clean.checkpoints.push_back(rig.platform->save_snapshot());
    }
  }
  cursor.advance_to(end);
  clean.checkpoints.push_back(rig.platform->save_snapshot());
  return clean;
}

namespace {

/// The cycles at which a replay-time fault acts: it starts when the cursor
/// leaves `first` and has nothing left to deliver once it leaves `last`.
struct FaultSpan {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

FaultSpan fault_span(const sim::FaultAction& action,
                     const sim::EventSchedule& schedule) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  if (action.kind == sim::FaultAction::Kind::kDmFlip) {
    return {action.cycle, action.cycle};
  }
  // A wake fault acts on its source interrupt; one that targets no event
  // is judged by a full replay.
  if (action.event_index >= schedule.events.size()) return {0, kNever};
  const std::uint64_t source = schedule.events[action.event_index].cycle;
  if (action.kind == sim::FaultAction::Kind::kDropWake) return {source, source};
  return {source, action.delay > kNever - source ? kNever
                                                 : source + action.delay};
}

/// Outcome-mode classification: drive the faulted replay towards the
/// recorded end cycle, stopping as masked at the first of the clean
/// `checkpoints` after `last` whose state it equals, and otherwise judge
/// its final state against the `clean` final state.
void classify_outcome(const RecordedRun& run, ReplayRig& faulty,
                      const std::vector<sim::FaultAction>& actions,
                      std::span<const sim::Snapshot> checkpoints,
                      std::uint64_t last, const sim::Snapshot& clean,
                      FaultTrialRow& row) {
  sim::ReplayCursor cursor(*faulty.platform, run.schedule, actions);
  const std::uint64_t start = cursor.cycle();
  for (auto it = std::ranges::upper_bound(checkpoints, last, {},
                                          &sim::Snapshot::cycle);
       it != checkpoints.end(); ++it) {
    cursor.advance_to(it->cycle());
    if (sim::snapshots_equal(*it, faulty.platform->save_snapshot(),
                             sim::DivergenceScope::kFullState)) {
      row.outcome = "masked";
      row.replayed_cycles = cursor.cycle() - start;
      return;
    }
  }
  cursor.advance_to(run.schedule.final_result.cycles);
  row.replayed_cycles = cursor.cycle() - start;
  const sim::Snapshot faulted = faulty.platform->save_snapshot();
  if (sim::snapshots_equal(clean, faulted, sim::DivergenceScope::kFullState)) {
    row.outcome = "masked";
    return;
  }
  // The state class of an SDC; it also rejects incomparable snapshots. A
  // detected failure below replaces it with its own core and class.
  classify_state_divergence(clean, faulted, row);
  if (row.outcome == "core-count-mismatch") return;
  // Externally observable failures first: a trap, or a core that never
  // reached the clean run's halt (a liveness/hang failure — e.g. a
  // dropped wake-up leaving a core asleep forever).
  for (std::size_t i = 0; i < faulted.cores.size(); ++i) {
    if (faulted.cores[i].status == sim::CoreStatus::kTrapped &&
        clean.cores[i].status != sim::CoreStatus::kTrapped) {
      row.outcome = "detected";
      row.divergence_core = static_cast<int>(i);
      row.state_class = "core-status";
      row.detail = "trap: core raised an architectural fault";
      return;
    }
  }
  for (std::size_t i = 0; i < faulted.cores.size(); ++i) {
    if (clean.cores[i].status == sim::CoreStatus::kHalted &&
        faulted.cores[i].status != sim::CoreStatus::kHalted) {
      row.outcome = "detected";
      row.divergence_core = static_cast<int>(i);
      row.state_class = "core-status";
      row.detail = std::string("liveness: core ") +
                   std::string(sim::to_string(faulted.cores[i].status)) +
                   " at recorded end";
      return;
    }
  }
  for (std::size_t i = 0; i < faulted.cores.size(); ++i) {
    if (clean.cores[i].status != faulted.cores[i].status) {
      row.outcome = "detected";
      row.divergence_core = static_cast<int>(i);
      row.state_class = "core-status";
      row.detail = std::string("status: clean ") +
                   std::string(sim::to_string(clean.cores[i].status)) +
                   " vs faulty " +
                   std::string(sim::to_string(faulted.cores[i].status));
      return;
    }
  }
  // The run "completed" like the clean one but its state differs: silent
  // data corruption. The state class names what went wrong first.
  row.outcome = "sdc";
  row.detail = "silent divergence at recorded end";
}

/// The one trial path (see `run_fault_trial`). `series` is a clean
/// checkpoint series whose last entry is the clean final state.
FaultTrialRow run_trial(const RecordedRun& run, const Registry& registry,
                        const CampaignFault& fault,
                        const CampaignConfig& config,
                        std::span<const sim::Snapshot> series) {
  FaultTrialRow row;
  row.fault = fault;
  if (fault.no_target) {
    row.outcome = "no-target";
    return row;
  }
  if (series.empty()) {
    row.outcome = "error";
    row.detail = "no clean replay to compare against";
    return row;
  }
  try {
    // Where trials start and stop early; the final state is neither (a
    // trial starting there would replay nothing).
    const std::span<const sim::Snapshot> checkpoints =
        series.first(series.size() - 1);
    ReplayRig faulty;
    std::vector<sim::FaultAction> actions;
    // An IM flip never stops early: its image differs from the clean one,
    // so equal state does not mean an equal future.
    FaultSpan span{0, std::numeric_limits<std::uint64_t>::max()};
    const sim::Snapshot* start = nullptr;
    if (fault.is_im_flip) {
      faulty.workload = registry.make(run.spec.workload, run.spec.params);
      faulty.platform = std::make_unique<sim::Platform>(
          resolved_config(run.spec, *faulty.workload));
      assembler::Program corrupted =
          faulty.workload->program(run.spec.with_synchronizer());
      corrupted.image[fault.im_word] ^= std::uint32_t{1} << fault.im_bit;
      try {
        faulty.platform->load_image(corrupted.origin, corrupted.image);
      } catch (const std::invalid_argument& error) {
        row.outcome = "undecodable-image";
        row.detail = error.what();
        return row;
      }
    } else {
      faulty = make_replay_rig(run, registry);
      actions.push_back(fault.action);
      span = fault_span(fault.action, run.schedule);
      // The last checkpoint at or before the first fault.
      const auto after = std::ranges::upper_bound(checkpoints, span.first, {},
                                                  &sim::Snapshot::cycle);
      if (after != checkpoints.begin()) {
        start = &*std::prev(after);
        faulty.platform->restore_snapshot(*start);
      }
    }

    if (config.localize) {
      ReplayRig clean = make_replay_rig(run, registry);
      if (start != nullptr) clean.platform->restore_snapshot(*start);
      sim::ReplayCursor clean_cursor(*clean.platform, run.schedule, {});
      sim::ReplayCursor faulty_cursor(*faulty.platform, run.schedule, actions);
      const std::uint64_t from = faulty_cursor.cycle();
      const sim::DivergenceReport divergence = sim::find_first_divergence(
          clean_cursor, faulty_cursor, run.schedule.final_result.cycles,
          sim::DivergenceScope::kCoreState, config.stride);
      row.replayed_cycles = faulty_cursor.cycle() - from;
      if (!divergence.diverged) {
        row.outcome = "masked";
        return row;
      }
      row.outcome = "localized";
      row.divergence_cycle = divergence.first_divergent_cycle;
      classify_state_divergence(divergence.clean_state, divergence.faulty_state,
                                row);
      row.detail = divergence.delta;
    } else {
      classify_outcome(run, faulty, actions, checkpoints, span.last,
                       series.back(), row);
    }
  } catch (const std::exception& error) {
    row.outcome = "error";
    row.detail = error.what();
  }
  return row;
}

}  // namespace

FaultTrialRow run_fault_trial(const RecordedRun& run, const Registry& registry,
                              const CampaignFault& fault,
                              const CampaignConfig& config,
                              const CleanReplay& clean) {
  return run_trial(run, registry, fault, config, clean.checkpoints);
}

FaultTrialRow run_fault_trial(const RecordedRun& run, const Registry& registry,
                              const CampaignFault& fault,
                              const CampaignConfig& config,
                              const sim::Snapshot* clean_final) {
  return run_trial(run, registry, fault, config,
                   {clean_final, clean_final != nullptr ? 1u : 0u});
}

// --- CSV ---------------------------------------------------------------------

std::string campaign_csv_header() {
  return "index,voltage,model,fault,cycle,addr,bit,mask,span,core,delay,"
         "event_index,outcome,divergence_cycle,divergence_core,state_class,"
         "detail";
}

std::string fault_row_csv(const FaultTrialRow& row) {
  std::ostringstream out;
  const CampaignFault& f = row.fault;
  out << f.index << ',' << voltage_str(f.voltage) << ','
      << error_model_name(f.model) << ',';
  if (f.is_im_flip) {
    out << "im,0," << f.im_word << ',' << f.im_bit << ",0,1,-1,0,0,";
  } else {
    const sim::FaultAction& a = f.action;
    out << fault_class_name(a.kind) << ',' << a.cycle << ',' << a.addr << ','
        << a.bit << ',' << a.mask << ',' << a.span << ',' << a.core << ','
        << a.delay << ',' << a.event_index << ',';
  }
  out << row.outcome << ',' << row.divergence_cycle << ','
      << row.divergence_core << ',' << row.state_class << ','
      << csv_safe(row.detail);
  return out.str();
}

std::string campaign_csv(const std::vector<FaultTrialRow>& rows) {
  std::string out = campaign_csv_header() + "\n";
  for (const FaultTrialRow& row : rows) out += fault_row_csv(row) + "\n";
  return out;
}

namespace {

/// `expand_campaign` over the recorded run's own program and core count.
std::vector<CampaignFault> expand_recorded(const CampaignConfig& config,
                                           const RecordedRun& run,
                                           const Registry& registry) {
  const auto workload = registry.make(run.spec.workload, run.spec.params);
  return expand_campaign(config, run.schedule,
                         workload->program(run.spec.with_synchronizer()),
                         workload->num_cores());
}

}  // namespace

std::vector<FaultTrialRow> run_campaign(const RecordedRun& run,
                                        const Registry& registry,
                                        const CampaignConfig& config,
                                        unsigned jobs) {
  const std::vector<CampaignFault> faults =
      expand_recorded(config, run, registry);

  const CleanReplay clean = faults.empty()
                                ? CleanReplay{}
                                : clean_replay(run, registry, config.stride);

  std::vector<FaultTrialRow> rows(faults.size());
  util::parallel_for(faults.size(), jobs, [&](std::size_t index) {
    rows[index] = run_fault_trial(run, registry, faults[index], config, clean);
  });
  return rows;
}

// --- resilience report -------------------------------------------------------

ResilienceReport aggregate_resilience(const std::vector<FaultTrialRow>& rows) {
  ResilienceReport report;
  std::map<std::pair<std::uint64_t, ErrorModel>, std::size_t> bucket_of;
  for (const FaultTrialRow& row : rows) {
    const std::pair<std::uint64_t, ErrorModel> key{
        std::bit_cast<std::uint64_t>(row.fault.voltage), row.fault.model};
    auto it = bucket_of.find(key);
    if (it == bucket_of.end()) {
      it = bucket_of.emplace(key, report.buckets.size()).first;
      ResilienceBucket bucket;
      bucket.voltage = row.fault.voltage;
      bucket.model = row.fault.model;
      report.buckets.push_back(bucket);
    }
    ResilienceBucket& bucket = report.buckets[it->second];
    bucket.faults += 1;
    if (row.outcome == "no-target") {
      bucket.no_target += 1;
    } else if (row.outcome == "masked") {
      bucket.masked += 1;
    } else if (row.outcome == "detected") {
      bucket.detected += 1;
    } else if (row.outcome == "sdc") {
      bucket.sdc += 1;
    } else if (row.outcome == "localized") {
      bucket.localized += 1;
    } else if (row.outcome == "undecodable-image") {
      bucket.undecodable += 1;
    } else {
      bucket.errors += 1;  // "error", "core-count-mismatch"
    }
  }
  return report;
}

std::string ResilienceReport::to_csv() const {
  std::string out =
      "voltage,model,faults,injected,no_target,masked,detected,sdc,"
      "localized,undecodable,errors,masked_rate,detected_rate,sdc_rate\n";
  for (const ResilienceBucket& bucket : buckets) {
    const double injected = static_cast<double>(bucket.injected());
    const auto rate = [&](std::size_t count) {
      return injected > 0.0 ? static_cast<double>(count) / injected : 0.0;
    };
    std::ostringstream line;
    line << voltage_str(bucket.voltage) << ',' << error_model_name(bucket.model)
         << ',' << bucket.faults << ',' << bucket.injected() << ','
         << bucket.no_target << ',' << bucket.masked << ',' << bucket.detected
         << ',' << bucket.sdc << ',' << bucket.localized << ','
         << bucket.undecodable << ',' << bucket.errors << ','
         << rate_str(rate(bucket.masked)) << ','
         << rate_str(rate(bucket.detected + bucket.undecodable)) << ','
         << rate_str(rate(bucket.sdc)) << '\n';
    out += line.str();
  }
  return out;
}

// --- campaign spool ----------------------------------------------------------

namespace {

void encode_campaign_config(util::WireWriter& w, const CampaignConfig& c) {
  w.u32(static_cast<std::uint32_t>(c.models.size()));
  for (const ErrorModel model : c.models) {
    w.u8(static_cast<std::uint8_t>(model));
  }
  w.u32(c.count);
  w.u64(c.seed);
  w.u32(static_cast<std::uint32_t>(c.voltages.size()));
  for (const double v : c.voltages) w.u64(std::bit_cast<std::uint64_t>(v));
  w.u32(c.multi_bits);
  w.u32(c.burst_words);
  w.u32(c.row_words);
  for (const double value :
       {c.retention.nominal_v, c.retention.retention_v, c.retention.p_nominal,
        c.retention.sensitivity_per_v, c.rate_scale}) {
    w.u64(std::bit_cast<std::uint64_t>(value));
  }
  w.boolean(c.localize);
  w.u64(c.stride);
}

CampaignConfig decode_campaign_config(util::WireReader& r) {
  CampaignConfig c;
  c.models.clear();
  const std::uint32_t model_count = r.u32();
  for (std::uint32_t i = 0; i < model_count; ++i) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(ErrorModel::kRate)) {
      throw std::invalid_argument("campaign config: bad error model");
    }
    c.models.push_back(static_cast<ErrorModel>(raw));
  }
  c.count = r.u32();
  c.seed = r.u64();
  const std::uint32_t volt_count = r.u32();
  for (std::uint32_t i = 0; i < volt_count; ++i) {
    c.voltages.push_back(std::bit_cast<double>(r.u64()));
  }
  c.multi_bits = r.u32();
  c.burst_words = r.u32();
  c.row_words = r.u32();
  for (double* value :
       {&c.retention.nominal_v, &c.retention.retention_v,
        &c.retention.p_nominal, &c.retention.sensitivity_per_v,
        &c.rate_scale}) {
    *value = std::bit_cast<double>(r.u64());
  }
  c.localize = r.boolean();
  c.stride = r.u64();
  return c;
}

/// The campaign job kind (see `campaign_job`).
class CampaignJob final : public SpoolJob {
 public:
  CampaignJob(SpoolTransport& transport, const SpoolManifest& manifest,
              const Registry& registry)
      : SpoolJob(manifest), registry_(registry) {
    const std::string what = transport.describe();
    if (!manifest.campaign) {
      throw std::runtime_error(what + " is a sweep spool, not a campaign");
    }
    planned_ = parse_planned_campaign(transport.fetch_blob("campaign.bin"),
                                      "campaign image from " + what);
    if (planned_.fingerprint != manifest.fingerprint) {
      throw std::runtime_error("campaign image in " + what +
                               " does not match the spool manifest");
    }
    faults_ = expand_recorded(planned_.config, planned_.run, registry);
    if (faults_.size() != manifest.specs) {
      throw std::runtime_error(
          "campaign in " + what + " expands to " +
          std::to_string(faults_.size()) + " faults, manifest says " +
          std::to_string(manifest.specs));
    }
    clean_ = clean_replay(planned_.run, registry, planned_.config.stride);
  }

  std::vector<std::uint64_t> claim(const ClaimedShard& claimed) override {
    // The payload is "<fingerprint-hex> <id> <begin> <end>".
    std::istringstream in(
        std::string(claimed.payload.begin(), claimed.payload.end()));
    std::string hex;
    unsigned id = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    in >> hex >> id >> begin >> end;
    if (in.fail() || id != claimed.id || end < begin || end > faults_.size() ||
        std::strtoull(hex.c_str(), nullptr, 16) != manifest.fingerprint) {
      throw std::runtime_error("range file of shard " +
                               std::to_string(claimed.id) +
                               " does not belong to this campaign spool");
    }
    std::vector<std::uint64_t> indices(end - begin);
    std::iota(indices.begin(), indices.end(), begin);
    return indices;
  }

  SpoolRow run(std::uint64_t index) override {
    return {fault_row_csv(run_fault_trial(planned_.run, registry_,
                                          faults_[index], planned_.config,
                                          clean_)),
            ""};
  }

 private:
  const Registry& registry_;
  PlannedCampaign planned_;
  std::vector<CampaignFault> faults_;
  CleanReplay clean_;
};

}  // namespace

std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   const RecordedRun& run) {
  util::WireWriter w;
  encode_campaign_config(w, config);
  w.u64(run.content_hash());
  return fnv1a64(w.bytes());
}

PlannedCampaign parse_planned_campaign(std::span<const std::uint8_t> bytes,
                                       const std::string& what) {
  util::WireReader r =
      util::unseal(bytes, kCampaignMagic, kCampaignVersion, what);
  PlannedCampaign planned;
  planned.fingerprint = r.u64();
  planned.config = decode_campaign_config(r);
  const std::vector<std::uint8_t> envelope = r.blob();
  planned.run = RecordedRun::deserialize(envelope);
  if (planned.fingerprint !=
      campaign_fingerprint(planned.config, planned.run)) {
    throw std::invalid_argument(what + ": fingerprint mismatch");
  }
  return planned;
}

CampaignPlanResult plan_campaign_spool(const std::string& dir,
                                       const RecordedRun& run,
                                       const CampaignConfig& config,
                                       const Registry& registry,
                                       const CampaignSpoolOptions& options) {
  const std::vector<CampaignFault> faults =
      expand_recorded(config, run, registry);
  if (faults.empty()) {
    throw std::invalid_argument(
        "plan_campaign_spool: the campaign expands to no faults");
  }
  create_spool_dirs(dir);

  SpoolManifest manifest;
  manifest.campaign = true;
  manifest.fingerprint = campaign_fingerprint(config, run);
  manifest.specs = faults.size();
  util::write_file_atomic(
      dir + "/campaign.bin",
      util::seal(kCampaignMagic, kCampaignVersion, [&](util::WireWriter& w) {
        w.u64(manifest.fingerprint);
        encode_campaign_config(w, config);
        w.blob(run.serialize());
      }));

  // Contiguous fault-index ranges, balanced to within one fault.
  const unsigned shard_count = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, options.shards), faults.size()));
  const std::size_t base = faults.size() / shard_count;
  const std::size_t extra = faults.size() % shard_count;
  std::uint64_t begin = 0;
  for (unsigned s = 0; s < shard_count; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    util::write_file_atomic(dir + "/queue/" + shard_name(s) + ".range",
                            util::hex64(manifest.fingerprint) + " " +
                                std::to_string(s) + " " +
                                std::to_string(begin) + " " +
                                std::to_string(begin + size) + "\n");
    manifest.shards.push_back({.id = s, .specs = size, .begin = begin});
    begin += size;
  }
  // The manifest is written last: a spool without one is unplanned, never
  // half-planned.
  util::write_file_atomic(dir + "/MANIFEST", spool_manifest_text(manifest));

  CampaignPlanResult result;
  result.faults = faults.size();
  result.shards = shard_count;
  result.fingerprint = manifest.fingerprint;
  return result;
}

std::unique_ptr<SpoolJob> campaign_job(SpoolTransport& transport,
                                       const SpoolManifest& manifest,
                                       const Registry& registry) {
  return std::make_unique<CampaignJob>(transport, manifest, registry);
}

WorkReport work_campaign_spool(const std::string& dir,
                               const Registry& registry,
                               const CampaignWorkOptions& options) {
  FsTransport transport(dir);
  CampaignJob job(transport, read_spool_manifest(transport), registry);
  return drain_spool(transport, job, options.worker_id, options.resume,
                     options.max_shards, options.jobs);
}

std::string merge_campaign_spool(const std::string& dir) {
  return merge_spool(dir);
}

// --- shared campaign CLI vocabulary ------------------------------------------

CampaignConfig campaign_config_from_flags(const util::CliArgs& args) {
  CampaignConfig config;
  config.models =
      parse_error_models(args.get("faults", "dm,im,wake-delay,wake-drop"));
  if (config.models.empty()) {
    throw std::runtime_error("--faults lists no fault classes");
  }
  config.count = static_cast<unsigned>(args.get_int("count", 4));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  config.stride = static_cast<std::uint64_t>(args.get_int("stride", 4096));
  config.voltages = parse_voltage_list(args.get("volts", ""));
  if (args.has("energy-mhz")) {
    // The supply the voltage-scaling model needs to sustain this clock —
    // the same resolution the energy pipeline's auto mode performs, so a
    // frequency sweep and a fault-rate sweep see one voltage axis.
    const double f_mhz = args.get_double("energy-mhz", 0.0);
    const power::VoltageScaling scaling{power::VoltageParams{}};
    const auto voltage = scaling.min_voltage_for(f_mhz);
    if (!voltage) {
      throw std::runtime_error(
          "--energy-mhz exceeds the nominal-voltage maximum frequency");
    }
    config.voltages.push_back(*voltage);
  }
  config.multi_bits = static_cast<unsigned>(args.get_int("multi-bits", 3));
  config.burst_words =
      static_cast<std::uint32_t>(args.get_int("burst-words", 4));
  config.row_words = static_cast<std::uint32_t>(args.get_int("row-words", 16));
  config.rate_scale = args.get_double("rate-scale", 1.0);
  config.retention.retention_v =
      args.get_double("retention-v", config.retention.retention_v);
  config.retention.p_nominal =
      args.get_double("rate-p-nominal", config.retention.p_nominal);
  config.retention.sensitivity_per_v =
      args.get_double("rate-sensitivity", config.retention.sensitivity_per_v);
  const std::string mode = args.get("mode", "outcome");
  if (mode == "localize") {
    config.localize = true;
  } else if (mode != "outcome") {
    throw std::runtime_error("unknown --mode: " + mode);
  }
  return config;
}

RecordedRun acquire_campaign_run(const util::CliArgs& args,
                                 const Registry& registry) {
  const std::string evt_path = args.get("evt", "");
  if (!evt_path.empty()) return read_recorded_run_file(evt_path);

  RunSpec spec;
  spec.workload = args.get("workload", "sleepgen");
  spec.params.samples = static_cast<unsigned>(args.get_int("samples", 48));
  spec.max_cycles =
      static_cast<std::uint64_t>(args.get_int("max-cycles", 2'000'000));
  const std::string design = args.get("design", "auto");
  if (design == "synchronized") {
    spec.design = DesignVariant::synchronized();
  } else if (design == "baseline") {
    spec.design = DesignVariant::baseline();
  } else if (design == "xbar") {
    spec.design = DesignVariant::xbar_only();
  } else if (design == "auto") {
    // The hardware synchronizer tops out at 8 cores; wider workloads get
    // the crossbar-enhanced design.
    const auto workload = registry.make(spec.workload, spec.params);
    spec.design = workload->num_cores() <= 8 ? DesignVariant::synchronized()
                                             : DesignVariant::xbar_only();
  } else {
    throw std::runtime_error("unknown --design: " + design);
  }
  RecordOutcome outcome = record_one(spec, registry);
  if (outcome.record.status != "all-halted" &&
      outcome.record.status != "all-asleep" &&
      outcome.record.status != "max-cycles") {
    throw std::runtime_error("recording run failed: " + outcome.record.status +
                             " (" + outcome.record.verify_error + ")");
  }
  return std::move(outcome.recorded);
}

}  // namespace ulpsync::scenario
