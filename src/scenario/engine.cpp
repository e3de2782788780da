#include "scenario/engine.h"

#include <exception>
#include <map>
#include <optional>
#include <span>

#include "core/lockstep.h"
#include "power/model.h"
#include "power/scaling.h"
#include "power/sweep.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/replay.h"
#include "sim/platform.h"
#include "util/parallel.h"

namespace ulpsync::scenario {

namespace {

std::string status_name(sim::RunResult::Status status) {
  switch (status) {
    case sim::RunResult::Status::kAllHalted: return "all-halted";
    case sim::RunResult::Status::kMaxCycles: return "max-cycles";
    case sim::RunResult::Status::kAllAsleep: return "all-asleep";
    case sim::RunResult::Status::kTrap: return "trap";
  }
  return "?";
}

}  // namespace

// (See engine.h.)
sim::PlatformConfig resolved_config(const RunSpec& spec,
                                    const Workload& workload) {
  sim::PlatformConfig config = workload.base_config(spec.with_synchronizer());
  config.features = spec.design.features;
  if (spec.arbitration) config.arbitration = *spec.arbitration;
  if (spec.im_line_slots) config.im_line_slots = *spec.im_line_slots;
  if (spec.fast_forward) config.fast_forward = *spec.fast_forward;
  return config;
}

// (See engine.h.)
void finish_record(RunRecord& record, const Workload& workload,
                   const sim::Platform& platform, const sim::RunResult& result,
                   double lockstep_fraction) {
  record.status = status_name(result.status);
  record.counters = platform.counters();
  record.sync_stats = platform.sync_stats();
  record.lockstep_fraction = lockstep_fraction;
  record.useful_ops = workload.useful_ops(record.counters, record.sync_stats);
  record.ops_per_cycle =
      record.counters.cycles == 0
          ? 0.0
          : static_cast<double>(record.useful_ops) /
                static_cast<double>(record.counters.cycles);
  // The energy request's params variant overrides the design-derived
  // default; `kAuto` (and no request at all) keeps the Table I pairing.
  bool charge_synchronized = record.spec.with_synchronizer();
  if (record.spec.energy &&
      record.spec.energy->params != EnergyRequest::Params::kAuto) {
    charge_synchronized =
        record.spec.energy->params == EnergyRequest::Params::kSynchronized;
  }
  const power::EnergyParams energy_params =
      charge_synchronized ? power::EnergyParams::synchronized()
                          : power::EnergyParams::baseline();
  record.energy = power::energy_per_cycle(energy_params, record.counters,
                                          record.sync_stats);
  if (record.spec.energy) {
    // Scale the exact per-cycle energies to the requested operating point
    // (power/sweep.h). Pure double arithmetic over the counters, so the
    // report is bit-identical across every execution mode that keeps the
    // counters bit-identical.
    record.energy_report = power::energy_report(
        record.energy, record.ops_per_cycle, record.counters.cycles,
        record.spec.energy->f_mhz, record.spec.energy->voltage,
        power::VoltageScaling{power::VoltageParams{}});
  }
  // Verify only runs whose platform reached a legal final state; a trap
  // or an exhausted budget is itself the failure.
  if (result.status == sim::RunResult::Status::kAllHalted ||
      result.status == sim::RunResult::Status::kAllAsleep) {
    record.verify_error = workload.verify(platform);
  } else {
    record.verify_error = result.to_string();
  }
  record.extra = workload.report(platform);
}

// (See engine.h.)
std::string warm_group_key(const RunSpec& spec) {
  RunSpec prefix = spec;
  prefix.max_cycles = 0;
  prefix.energy.reset();
  return run_spec_bytes(prefix);
}

// (See engine.h.)
std::uint64_t ring_identity(const RunSpec& spec) {
  return fnv1a64(warm_group_key(spec));
}

Engine::Engine(const Registry& registry, EngineOptions options)
    : registry_(&registry), options_(std::move(options)) {}

RunRecord Engine::run_one(const RunSpec& spec, std::uint64_t ring_slot) const {
  return run_one_impl(spec, spec.resume_from.get(), ring_slot);
}

std::vector<std::vector<std::size_t>> Engine::warm_groups(
    const std::vector<RunSpec>& specs) const {
  // std::map keeps the grouping deterministic for any caller.
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (!spec.checkpoint_at || *spec.checkpoint_at == 0 ||
        *spec.checkpoint_at >= spec.max_cycles || spec.resume_from ||
        !spec.record_events_to.empty()) {
      continue;
    }
    by_key[warm_group_key(spec)].push_back(i);
  }
  std::vector<std::vector<std::size_t>> groups;
  for (auto& [key, members] : by_key) {
    (void)key;
    if (members.size() < 2) continue;  // sharing is the whole point
    const RunSpec& leader = specs[members.front()];
    try {
      if (registry_->make(leader.workload, leader.params)->windowed_drive() !=
          nullptr) {
        continue;
      }
    } catch (...) {
      continue;  // the members' cold runs report the failure
    }
    groups.push_back(std::move(members));
  }
  return groups;
}

std::shared_ptr<const WarmState> Engine::capture_warm_state(
    const RunSpec& spec, std::uint64_t cycle) const {
  try {
    const auto workload = registry_->make(spec.workload, spec.params);
    if (workload->windowed_drive() != nullptr) return nullptr;

    sim::Platform platform(resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    workload->load_inputs(platform);

    core::LockstepAnalyzer analyzer;
    analyzer.attach(platform);

    // Without a windowed drive a workload drives with `platform.run`, so
    // running the prefix directly reproduces the cold run's first `cycle`
    // cycles exactly (an early stop — all halted/asleep — is resumable
    // too: the continuation re-derives the same final status).
    (void)platform.run(cycle);

    auto state = std::make_shared<WarmState>();
    state->snapshot = platform.save_snapshot();
    state->lockstep = analyzer.metrics();
    return state;
  } catch (...) {
    // A failing warm-up must never fail the sweep: members fall back to
    // cold runs, where the same failure surfaces as an "error" record.
    return nullptr;
  }
}

RunRecord Engine::run_one_impl(const RunSpec& spec, const WarmState* warm,
                               std::uint64_t ring_slot) const {
  RunRecord record;
  record.spec = spec;
  try {
    if (!spec.record_events_to.empty()) {
      // Recording path: delegate to the canonical cold recorder and write
      // the envelope. Warm states, rings and batch lanes are bit-identical
      // host optimizations, so the record is the same either way.
      RecordOutcome outcome = record_one(spec, *registry_);
      write_recorded_run_file(spec.record_events_to, outcome.recorded);
      return outcome.record;
    }

    const auto workload = registry_->make(spec.workload, spec.params);

    sim::Platform platform(resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    workload->load_inputs(platform);

    core::LockstepAnalyzer analyzer;
    analyzer.attach(platform);

    // Resume from the newest valid ring entry when the ring has one, else
    // from the warm state; restoring either is bit-exact. A mismatched
    // snapshot throws and surfaces as an "error" record.
    const CheckpointRingOptions& ring = options_.checkpoint_ring;
    std::string ring_dir;
    std::uint64_t identity = 0;
    std::optional<RingEntry> entry;
    if (ring.enabled()) {
      ring_dir = ring_run_dir(ring.dir, ring_slot);
      identity = ring_identity(spec);
      entry = load_latest_ring_entry(ring_dir, identity, spec.max_cycles);
    }
    const WarmState* resume = entry ? &entry->state : warm;
    std::span<const std::uint64_t> host_words;
    if (resume != nullptr) {
      platform.restore_snapshot(resume->snapshot);
      analyzer.restore(resume->lockstep);
      host_words = resume->snapshot.host_words;
    }
    std::optional<RingWriter> writer;
    if (ring.enabled()) {
      writer.emplace(ring_dir, identity, ring.stride, ring.keep,
                     platform.counters().cycles, &analyzer);
    }
    const sim::RunResult result = workload->drive(
        platform, spec.max_cycles, writer ? &*writer : nullptr, host_words);

    finish_record(record, *workload, platform, result,
                  analyzer.metrics().lockstep_fraction());
  } catch (const std::exception& error) {
    record.status = "error";
    record.verify_error = error.what();
  } catch (...) {
    // Keep the never-throws contract even for non-std exceptions from user
    // workload hooks; escaping a worker thread would std::terminate.
    record.status = "error";
    record.verify_error = "unknown exception from workload";
  }
  return record;
}

std::vector<RunRecord> Engine::run(const std::vector<RunSpec>& specs) const {
  // Warm-start prepass: simulate each group's shared prefix once, in group
  // order, before the pool starts; the states outlive every run.
  std::vector<std::shared_ptr<const WarmState>> states;
  std::vector<const WarmState*> warm_of(specs.size(), nullptr);
  for (const std::vector<std::size_t>& group : warm_groups(specs)) {
    const RunSpec& leader = specs[group.front()];
    states.push_back(capture_warm_state(leader, *leader.checkpoint_at));
    for (const std::size_t i : group) warm_of[i] = states.back().get();
  }

  std::vector<RunRecord> records(specs.size());
  util::parallel_for(specs.size(), options_.jobs, [&](std::size_t index) {
    const WarmState* warm = warm_of[index] != nullptr
                                ? warm_of[index]
                                : specs[index].resume_from.get();
    records[index] = run_one_impl(specs[index], warm, /*ring_slot=*/index);
  });
  return records;
}

}  // namespace ulpsync::scenario
