#include "scenario/batch.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "core/lockstep.h"
#include "scenario/workload.h"
#include "sim/batch/lane_group.h"
#include "sim/decoded_image.h"
#include "sim/platform.h"
#include "util/parallel.h"

namespace ulpsync::scenario {

namespace {

/// Upper bound on lanes per group. Large cohorts split into several groups
/// (each with its own leader platform): this caps a group's working set —
/// lane data memories plus the compiled window stream — near the
/// last-level cache, where the follower pass earns its keep, and bounds
/// the blast radius of a group-level bail.
constexpr std::size_t kMaxLanes = 128;

/// True when the program contains synchronizer ops. The lane emulator has
/// no synchronizer model (it would need the full RMW timing state), so such
/// programs run scalar — they would bail out of every window anyway.
bool uses_synchronizer_ops(const assembler::Program& program) {
  for (const auto& instr : program.code) {
    if (instr.op == isa::Opcode::kSinc || instr.op == isa::Opcode::kSdec) {
      return true;
    }
  }
  return false;
}

}  // namespace

// (See batch.h.) Group members must hit budget stops at the same cycle
// for the leader's timing to stand in for them, so `max_cycles` stays in.
std::string batch_group_key(const RunSpec& spec) {
  RunSpec lanes = spec;
  lanes.params.generator = {};
  lanes.energy.reset();
  return run_spec_bytes(lanes);
}

/// One worker task: either a lane group to batch or a single spec to run
/// through the scalar engine.
struct BatchEngine::Group {
  std::vector<std::size_t> members;  ///< spec indices, in spec order
  /// Workload instances aligned with `members` (made during
  /// classification; each lane needs its own — drives keep per-run state).
  std::vector<std::shared_ptr<const Workload>> workloads;
  bool batched = false;
};

BatchEngine::BatchEngine(const Registry& registry, BatchOptions options)
    : registry_(&registry),
      options_(std::move(options)),
      scalar_(registry) {}

BatchResult BatchEngine::run(const std::vector<RunSpec>& specs) const {
  BatchResult result;
  result.records.resize(specs.size());
  result.final_snapshots.resize(options_.keep_final_snapshots ? specs.size()
                                                              : 0);
  if (specs.empty()) return result;

  // Classification: batchable specs group by key; everything else becomes a
  // one-spec scalar task. The map is ordered, so grouping is deterministic.
  std::map<std::string, Group> groups;
  // Synchronizer-op scan results by group key: the key pins every
  // program-shaping parameter, so one assembly answers for the whole
  // cohort (the scan re-assembled per spec dominates classification at
  // cohort scale otherwise).
  std::map<std::string, bool> sync_ops_by_key;
  std::vector<Group> tasks;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    std::shared_ptr<const Workload> workload;
    // Recording specs fall back to the scalar engine's record path: the
    // batch lanes are a bit-identical host optimization, so the recorded
    // envelope (and the record) would be the same — but the recorder's
    // event sink attaches to one platform, not a lane.
    bool eligible = spec.record_events_to.empty();
    if (eligible) {
      try {
        workload = registry_->make(spec.workload, spec.params);
      } catch (...) {
        // The scalar engine turns the same failure into an "error" record.
        eligible = false;
      }
    }
    eligible = eligible && workload != nullptr &&
               workload->windowed_drive() != nullptr;
    if (eligible) {
      const auto [it, inserted] =
          sync_ops_by_key.try_emplace(batch_group_key(spec), false);
      if (inserted) {
        it->second =
            uses_synchronizer_ops(workload->program(spec.with_synchronizer()));
      }
      eligible = !it->second;
    }
    if (eligible) {
      Group& group = groups[batch_group_key(spec)];
      group.members.push_back(i);
      group.workloads.push_back(std::move(workload));
      group.batched = true;
    } else {
      Group single;
      single.members.push_back(i);
      tasks.push_back(std::move(single));
    }
  }
  for (auto& [key, group] : groups) {
    (void)key;
    for (std::size_t at = 0; at < group.members.size(); at += kMaxLanes) {
      const std::size_t end = std::min(at + kMaxLanes, group.members.size());
      Group chunk;
      chunk.batched = true;
      chunk.members.assign(group.members.begin() + at,
                           group.members.begin() + end);
      chunk.workloads.assign(
          std::make_move_iterator(group.workloads.begin() + at),
          std::make_move_iterator(group.workloads.begin() + end));
      tasks.push_back(std::move(chunk));
    }
  }

  // Distribute tasks over the worker pool. Records and final snapshots are
  // written at disjoint indices (no lock needed); stats accumulate
  // per-task and merge in task order, so the result is deterministic.
  std::vector<BatchStats> task_stats(tasks.size());
  util::parallel_for(tasks.size(), options_.jobs, [&](std::size_t t) {
    run_group(specs, tasks[t], result, task_stats[t]);
  });

  for (const BatchStats& s : task_stats) {
    result.stats.groups += s.groups;
    result.stats.batched_runs += s.batched_runs;
    result.stats.scalar_runs += s.scalar_runs;
    result.stats.diverged_lanes += s.diverged_lanes;
    result.stats.group_bails += s.group_bails;
    result.stats.emulated_instructions += s.emulated_instructions;
    result.stats.notes.insert(result.stats.notes.end(), s.notes.begin(),
                              s.notes.end());
  }
  return result;
}

void BatchEngine::run_group(const std::vector<RunSpec>& specs,
                            const Group& group, BatchResult& result,
                            BatchStats& stats) const {
  const bool keep_snapshots = options_.keep_final_snapshots;
  if (!group.batched) {
    for (std::size_t idx : group.members) {
      result.records[idx] = scalar_.run_one(specs[idx]);
      stats.scalar_runs += 1;
    }
    return;
  }

  const unsigned n = static_cast<unsigned>(group.members.size());
  struct Lane {
    std::size_t spec_index = 0;
    const Workload* workload = nullptr;
    const WindowedDrive* drive = nullptr;
    bool live = true;      ///< still riding the batch
    bool finished = false; ///< record already written (fallback paths)
  };
  std::vector<Lane> lanes(n);
  for (unsigned l = 0; l < n; ++l) lanes[l].spec_index = group.members[l];

  stats.groups += 1;
  try {
    const RunSpec& leader_spec = specs[group.members.front()];
    const Workload& leader_workload = *group.workloads.front();
    const WindowedDrive& leader_drive = *leader_workload.windowed_drive();
    const std::uint64_t max_cycles = leader_spec.max_cycles;

    // The leader's real platform: the group's single source of timing.
    const sim::PlatformConfig config =
        resolved_config(leader_spec, leader_workload);
    sim::Platform platform(config);
    platform.load_program(leader_workload.program(leader_spec.with_synchronizer()));
    leader_workload.load_inputs(platform);
    core::LockstepAnalyzer analyzer;
    analyzer.attach(platform);

    for (unsigned l = 0; l < n; ++l) {
      Lane& lane = lanes[l];
      lane.workload = group.workloads[l].get();
      lane.drive = lane.workload->windowed_drive();
      lane.drive->adopt_host_words({});
    }

    // Cold prologue — shared: it happens before any deposit, and the
    // WindowedDrive contract keeps `load_inputs` lane-invariant, so every
    // lane's first `initial_bound` cycles are this exact run.
    sim::RunResult run_result = platform.run(
        std::min<std::uint64_t>(max_cycles, leader_drive.initial_bound()));
    if (run_result.status != sim::RunResult::Status::kAllAsleep) {
      // Degenerate prologue (halt/trap/budget before the first sleep): no
      // deposit ever happened, so every lane's whole run is lane-invariant.
      for (Lane& lane : lanes) {
        RunRecord& record = result.records[lane.spec_index];
        record.spec = specs[lane.spec_index];
        finish_record(record, *lane.workload, platform, run_result,
                      analyzer.metrics().lockstep_fraction());
        if (keep_snapshots) {
          result.final_snapshots[lane.spec_index] = platform.save_snapshot();
        }
        lane.finished = true;
        stats.batched_runs += 1;
      }
      return;
    }

    // The all-asleep boundary every lane starts from, and its lockstep
    // metrics (a fallback lane resumes its analyzer from the boundary's —
    // matched traces mean matched metrics).
    sim::Snapshot boundary = platform.save_snapshot();
    core::LockstepAnalyzer::Metrics boundary_metrics = analyzer.metrics();
    // Materialization template: the boundary minus its DM payload.
    // `materialize` replaces the DM runs wholesale with the lane's own, so
    // handing it the full boundary would copy the leader's words only to
    // drop them — at cohort scale that copy is real money.
    sim::Snapshot lane_template = boundary;
    lane_template.dm_runs.clear();

    sim::batch::LaneGroup lane_state(n, config.num_cores, config.dm_words());
    lane_state.init_from(boundary);

    // The emulator's decode table: one bank covering the whole program
    // (bank geometry shapes platform timing, not architectural execution).
    const assembler::Program& program =
        leader_workload.program(leader_spec.with_synchronizer());
    const std::uint32_t slots =
        program.origin + static_cast<std::uint32_t>(program.code.size());
    sim::DecodedImage image(slots, 1, slots, 0);
    image.load(program.origin, program.code);

    // One scratch platform serves every per-lane materialization in this
    // group — fallback continuation and follower finish. Loading
    // the program once matters: a fresh platform pays the image fingerprint
    // over every IM slot on first use, which dwarfs a warm
    // `restore_snapshot` (restore rewrites all of DM and the core states,
    // so no input re-load is needed — the snapshot is the whole state).
    std::optional<sim::Platform> scratch;
    auto scratch_platform = [&]() -> sim::Platform& {
      if (!scratch) {
        scratch.emplace(config);
        scratch->load_program(
            leader_workload.program(leader_spec.with_synchronizer()));
      }
      return *scratch;
    };

    // A fallback lane leaves the batch at the current window boundary:
    // its rolled-back lane state materializes into a full snapshot, and
    // scalar `drive_windowed` — the same loop the scalar engine runs —
    // carries it to the end, bit-exactly.
    auto scalar_from_boundary = [&](unsigned l, unsigned window) {
      Lane& lane = lanes[l];
      const RunSpec& spec = specs[lane.spec_index];
      sim::Platform& p = scratch_platform();
      core::LockstepAnalyzer a;
      a.attach(p);
      p.restore_snapshot(lane_state.materialize(l, lane_template));
      a.restore(boundary_metrics);
      const sim::RunResult r =
          drive_windowed(*lane.drive, p, max_cycles, window);
      RunRecord& record = result.records[lane.spec_index];
      record.spec = spec;
      finish_record(record, *lane.workload, p, r,
                    a.metrics().lockstep_fraction());
      if (keep_snapshots) {
        result.final_snapshots[lane.spec_index] = p.save_snapshot();
      }
      p.set_lockstep_sink(nullptr);  // `a` dies here; the platform persists
      lane.live = false;
      lane.finished = true;
      stats.scalar_runs += 1;
    };

    const unsigned windows = leader_drive.windows();
    bool group_live = true;
    sim::batch::WindowTraces traces;
    sim::batch::WindowProgram ops;    // compiled window; storage reused
    std::vector<unsigned> followers;  // live follower lanes, per window
    std::vector<sim::batch::LaneWindowOutcome> follower_outcomes;

    for (unsigned w = 0; w < windows && group_live; ++w) {
      if (run_result.status != sim::RunResult::Status::kAllAsleep) break;

      // Open the window on every live lane and deposit its own samples
      // (block runs: the per-word closure dispatch would dominate at
      // cohort scale).
      for (unsigned l = 0; l < n; ++l) {
        if (!lanes[l].live) continue;
        lane_state.begin_window(l);
        lanes[l].drive->deposit_blocks(
            w, [&lane_state, l](std::uint32_t addr,
                                std::span<const std::uint16_t> words) {
              lane_state.deposit_block(l, addr, words);
            });
      }

      // Reference pass: emulate the leader lane, recording traces.
      const sim::batch::LaneWindowResult leader_window =
          lane_state.run_window(0, image, traces,
                                leader_drive.window_budget());
      std::string bail;
      if (leader_window.outcome != sim::batch::LaneWindowOutcome::kCompleted) {
        bail = leader_window.detail;
      } else {
        bail = sim::batch::check_rw_disjoint(traces);
      }
      if (!bail.empty()) {
        // Whole-group bail before the real window ran: every lane rolls
        // back to the boundary; the leader continues real from window `w`,
        // every follower goes scalar from the same boundary.
        stats.group_bails += 1;
        std::ostringstream note;
        note << leader_spec.workload << " window " << w << ": " << bail;
        stats.notes.push_back(note.str());
        for (unsigned l = 0; l < n; ++l) {
          if (lanes[l].live) lane_state.rollback(l);
        }
        group_live = false;
        run_result = drive_windowed(leader_drive, platform, max_cycles, w);
        for (unsigned l = 1; l < n; ++l) {
          if (lanes[l].live) scalar_from_boundary(l, w);
        }
        break;
      }

      // Follower pass: execute the leader's compiled window op-major
      // across every live follower at once; a diverging lane rolls back
      // and leaves the batch at this boundary.
      sim::batch::compile_window(image, traces, ops);
      followers.clear();
      for (unsigned l = 1; l < n; ++l) {
        if (lanes[l].live) followers.push_back(l);
      }
      lane_state.run_window_ops(followers, ops, follower_outcomes);
      for (std::size_t i = 0; i < followers.size(); ++i) {
        if (follower_outcomes[i] !=
            sim::batch::LaneWindowOutcome::kCompleted) {
          stats.diverged_lanes += 1;
          lane_state.rollback(followers[i]);
          scalar_from_boundary(followers[i], w);
        }
      }

      // Real leader window — the exact `drive_windowed` sequencing.
      leader_drive.deposit(
          w, [&platform](std::uint32_t addr, std::uint16_t word) {
            platform.dm_write(addr, word);
          });
      const std::uint64_t before = platform.counters().cycles;
      platform.interrupt_all();
      run_result = platform.run(
          std::min(max_cycles, before + leader_drive.window_budget()));
      const std::uint64_t busy = platform.counters().cycles - before;

      // Validate the emulated leader lane against the real platform. A
      // mismatch is either a budget/trap stop mid-window (the real run did
      // not reach the boundary the emulation assumed) or an emulator model
      // gap; both fall every follower back to the *previous* boundary.
      sim::Snapshot next_boundary = platform.save_snapshot();

      // The platform updates the per-core `latched_load` snapshot
      // microstate only on policy-group broadcast loads — a cross-core
      // timing event the emulator cannot predict. Patch the latched loads
      // of this window into every live lane from the real platform's
      // retirement-ordinal accounting before validating/materializing. A
      // matched-trace lane retired the same event kinds at the same
      // ordinals, so a failed lookup means the lane left the reference.
      std::string latch_mismatch;
      for (unsigned core = 0; core < config.num_cores; ++core) {
        const std::uint64_t latch = platform.last_policy_latch_retired(core);
        if (latch == sim::Platform::kNoPolicyLatch) continue;
        const std::uint64_t start = boundary.counters.per_core_retired[core];
        if (latch < start) continue;  // latched in an earlier window
        const std::uint64_t event_index = latch - start;
        if (!lane_state.apply_policy_latch(0, core, event_index)) {
          std::ostringstream out;
          out << "core " << core << ": policy latch at retirement ordinal "
              << event_index << " is not an emulated load";
          latch_mismatch = out.str();
          break;
        }
        for (unsigned l = 1; l < n; ++l) {
          if (!lanes[l].live) continue;
          if (!lane_state.apply_policy_latch(l, core, event_index)) {
            stats.diverged_lanes += 1;
            lane_state.rollback(l);
            scalar_from_boundary(l, w);
          }
        }
      }

      const std::string mismatch = latch_mismatch.empty()
                                       ? lane_state.compare_with(0, next_boundary)
                                       : latch_mismatch;
      if (!mismatch.empty()) {
        stats.group_bails += 1;
        std::ostringstream note;
        note << leader_spec.workload << " window " << w
             << ": real platform left the emulated path: " << mismatch;
        stats.notes.push_back(note.str());
        group_live = false;
        for (unsigned l = 1; l < n; ++l) {
          if (lanes[l].live) {
            lane_state.rollback(l);
            scalar_from_boundary(l, w);
          }
        }
        // The leader itself is real — account this window as
        // `drive_windowed` would, then continue real from the next one.
        leader_drive.note_window(busy);
        if (run_result.status == sim::RunResult::Status::kAllAsleep) {
          run_result =
              drive_windowed(leader_drive, platform, max_cycles, w + 1);
        }
        break;
      }

      // Commit: account the window on every live lane.
      for (unsigned l = 0; l < n; ++l) {
        if (lanes[l].live) lanes[l].drive->note_window(busy);
      }
      boundary = std::move(next_boundary);
      boundary_metrics = analyzer.metrics();
      lane_template = boundary;
      lane_template.dm_runs.clear();
    }

    // Lanes that rode the batch to the end: the leader finishes from its
    // real platform; every matched follower is cycle-identical to it, so
    // its record is the leader's timing plus its own materialized state.
    if (lanes[0].live) {
      RunRecord& record = result.records[lanes[0].spec_index];
      record.spec = leader_spec;
      finish_record(record, leader_workload, platform, run_result,
                    analyzer.metrics().lockstep_fraction());
      if (keep_snapshots) {
        result.final_snapshots[lanes[0].spec_index] = platform.save_snapshot();
      }
      lanes[0].finished = true;
      stats.batched_runs += 1;
    }
    for (unsigned l = 1; l < n; ++l) {
      Lane& lane = lanes[l];
      if (!lane.live) continue;
      const RunSpec& spec = specs[lane.spec_index];
      sim::Snapshot snap = lane_state.materialize(l, lane_template);
      sim::Platform& p = scratch_platform();
      p.restore_snapshot(snap);
      RunRecord& record = result.records[lane.spec_index];
      record.spec = spec;
      finish_record(record, *lane.workload, p, run_result,
                    analyzer.metrics().lockstep_fraction());
      if (keep_snapshots) {
        result.final_snapshots[lane.spec_index] = std::move(snap);
      }
      lane.finished = true;
      stats.batched_runs += 1;
    }
    stats.emulated_instructions += lane_state.emulated_instructions();
  } catch (...) {
    // Never lose a run to a batching failure: anything unfinished re-runs
    // through the scalar engine from scratch (its never-throws contract
    // turns the same root cause into an "error" record if it persists).
    for (const Lane& lane : lanes) {
      if (lane.finished) continue;
      result.records[lane.spec_index] = scalar_.run_one(specs[lane.spec_index]);
      stats.scalar_runs += 1;
    }
  }
}

}  // namespace ulpsync::scenario
