#include "scenario/engine.h"

#include <algorithm>
#include <exception>
#include <map>
#include <numeric>
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

/// Marks the records a failed shared run did not finish — `order[from..]`
/// — as "error" records carrying `message`.
void fail_unfinished(std::vector<RunRecord>& records,
                     const std::vector<std::size_t>& order, std::size_t from,
                     const std::string& message) {
  for (std::size_t i = from; i < order.size(); ++i) {
    records[order[i]].status = "error";
    records[order[i]].verify_error = message;
  }
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
  const std::size_t only = 0;
  return run_shared({&spec, 1}, {&only, 1}, ring_slot).front();
}

std::vector<std::vector<std::size_t>> Engine::run_groups(
    const std::vector<RunSpec>& specs) const {
  std::vector<std::vector<std::size_t>> groups;
  // std::map keeps the grouping deterministic for any caller.
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!specs[i].record_events_to.empty()) {
      groups.push_back({i});  // recording keeps its cold `record_one` path
    } else {
      by_key[warm_group_key(specs[i])].push_back(i);
    }
  }
  for (auto& [key, members] : by_key) {
    (void)key;
    bool shared = members.size() >= 2;
    if (shared) {
      const RunSpec& leader = specs[members.front()];
      try {
        shared = registry_->make(leader.workload, leader.params)
                     ->windowed_drive() == nullptr;
      } catch (...) {
        shared = false;  // the members' own runs report the failure
      }
    }
    if (shared) {
      groups.push_back(std::move(members));
    } else {
      for (const std::size_t i : members) groups.push_back({i});
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return groups;
}

std::vector<RunRecord> Engine::run_shared(std::span<const RunSpec> specs,
                                          std::span<const std::size_t> members,
                                          std::uint64_t ring_slot) const {
  std::vector<RunRecord> records(members.size());
  for (std::size_t k = 0; k < members.size(); ++k) {
    records[k].spec = specs[members[k]];
  }
  // Harvest order: ascending budget; equal budgets keep member order.
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].spec.max_cycles <
                            records[b].spec.max_cycles;
                   });
  std::size_t finished = 0;  // records finished, in harvest order
  try {
    const RunSpec& lead = records.front().spec;
    if (!lead.record_events_to.empty()) {
      // Recording path (a lone spec: `run_groups` never groups one):
      // delegate to the canonical cold recorder and write the envelope.
      // Shared runs, rings and batch lanes are bit-identical host
      // optimizations, so the record is the same either way.
      RecordOutcome outcome = record_one(lead, *registry_);
      write_recorded_run_file(lead.record_events_to, outcome.recorded);
      records.front() = std::move(outcome.record);
      return records;
    }

    const auto workload = registry_->make(lead.workload, lead.params);

    sim::Platform platform(resolved_config(lead, *workload));
    platform.load_program(workload->program(lead.with_synchronizer()));
    workload->load_inputs(platform);

    core::LockstepAnalyzer analyzer;
    analyzer.attach(platform);

    // Resume from the newest valid ring entry at or below the smallest
    // budget when the ring has one; restoring it is bit-exact. A
    // mismatched snapshot throws and surfaces as "error" records.
    const CheckpointRingOptions& ring = options_.checkpoint_ring;
    std::string ring_dir;
    std::uint64_t identity = 0;
    std::optional<RingEntry> entry;
    if (ring.enabled()) {
      ring_dir = ring_run_dir(ring.dir, ring_slot);
      identity = ring_identity(lead);
      entry = load_latest_ring_entry(ring_dir, identity,
                                     records[order.front()].spec.max_cycles);
    }
    std::span<const std::uint64_t> host_words;
    if (entry) {
      platform.restore_snapshot(entry->state.snapshot);
      analyzer.restore(entry->state.lockstep);
      host_words = entry->state.snapshot.host_words;
    }
    std::optional<RingWriter> writer;
    if (ring.enabled()) {
      writer.emplace(ring_dir, identity, ring.stride, ring.keep,
                     platform.counters().cycles, &analyzer);
    }

    // Drive to each distinct budget and finish the members due there. A
    // run that stopped short of its budget is over: later members get its
    // result, as their cold runs would.
    std::optional<sim::RunResult> result;
    for (const std::size_t k : order) {
      RunRecord& record = records[k];
      if (!result || (result->status == sim::RunResult::Status::kMaxCycles &&
                      result->cycles < record.spec.max_cycles)) {
        result = workload->drive(platform, record.spec.max_cycles,
                                 writer ? &*writer : nullptr, host_words);
        host_words = {};  // they describe only the restored state
      }
      finish_record(record, *workload, platform, *result,
                    analyzer.metrics().lockstep_fraction());
      ++finished;
    }
  } catch (const std::exception& error) {
    fail_unfinished(records, order, finished, error.what());
  } catch (...) {
    // Keep the never-throws contract even for non-std exceptions from user
    // workload hooks; escaping a worker thread would std::terminate.
    fail_unfinished(records, order, finished,
                    "unknown exception from workload");
  }
  return records;
}

std::vector<RunRecord> Engine::run(const std::vector<RunSpec>& specs) const {
  const std::vector<std::vector<std::size_t>> groups = run_groups(specs);
  std::vector<RunRecord> records(specs.size());
  util::parallel_for(groups.size(), options_.jobs, [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    std::vector<RunRecord> done =
        run_shared(specs, members, /*ring_slot=*/members.front());
    for (std::size_t k = 0; k < members.size(); ++k) {
      records[members[k]] = std::move(done[k]);
    }
  });
  return records;
}

}  // namespace ulpsync::scenario
