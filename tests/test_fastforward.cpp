// Region-executor and predecode equivalence.
//
// The hot-path machinery must be *exactly* invisible: with the region
// executor on vs. off (`PlatformConfig::fast_forward`), every builtin
// workload must produce bit-identical cycle counts, event counters,
// synchronizer statistics, lockstep metrics, trace timelines and VCD
// output; and a program predecoded from its encoded image must behave
// identically to one loaded from the assembler's decoded code.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "core/lockstep.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "sim/decoded_image.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "sim/trace.h"
#include "sim/vcd.h"
#include "util/wire.h"

namespace ulpsync {
namespace {

using scenario::Registry;
using scenario::RunSpec;

void expect_counters_equal(const sim::EventCounters& a,
                           const sim::EventCounters& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.im_bank_accesses, b.im_bank_accesses);
  EXPECT_EQ(a.im_fetches_delivered, b.im_fetches_delivered);
  EXPECT_EQ(a.im_broadcast_groups, b.im_broadcast_groups);
  EXPECT_EQ(a.fetch_conflict_cycles, b.fetch_conflict_cycles);
  EXPECT_EQ(a.dm_bank_accesses, b.dm_bank_accesses);
  EXPECT_EQ(a.dm_requests_granted, b.dm_requests_granted);
  EXPECT_EQ(a.dm_broadcast_reads, b.dm_broadcast_reads);
  EXPECT_EQ(a.dm_conflict_cycles, b.dm_conflict_cycles);
  EXPECT_EQ(a.policy_hold_events, b.policy_hold_events);
  EXPECT_EQ(a.retired_ops, b.retired_ops);
  EXPECT_EQ(a.core_active_cycles, b.core_active_cycles);
  EXPECT_EQ(a.core_fetch_stall_cycles, b.core_fetch_stall_cycles);
  EXPECT_EQ(a.core_mem_stall_cycles, b.core_mem_stall_cycles);
  EXPECT_EQ(a.core_sync_stall_cycles, b.core_sync_stall_cycles);
  EXPECT_EQ(a.core_sleep_cycles, b.core_sleep_cycles);
  EXPECT_EQ(a.core_branch_bubble_cycles, b.core_branch_bubble_cycles);
  EXPECT_EQ(a.core_wakeup_ramp_cycles, b.core_wakeup_ramp_cycles);
  EXPECT_EQ(a.lockstep_cycles, b.lockstep_cycles);
  EXPECT_EQ(a.fetch_cycles, b.fetch_cycles);
  EXPECT_EQ(a.divergence_events, b.divergence_events);
  EXPECT_EQ(a.per_core_retired, b.per_core_retired);
  EXPECT_EQ(a.per_core_active, b.per_core_active);
  EXPECT_EQ(a.per_core_sleep, b.per_core_sleep);
}

void expect_sync_stats_equal(const core::SynchronizerStats& a,
                             const core::SynchronizerStats& b) {
  EXPECT_EQ(a.rmw_ops, b.rmw_ops);
  EXPECT_EQ(a.dm_accesses, b.dm_accesses);
  EXPECT_EQ(a.checkins, b.checkins);
  EXPECT_EQ(a.checkouts, b.checkouts);
  EXPECT_EQ(a.merged_requests, b.merged_requests);
  EXPECT_EQ(a.wakeup_events, b.wakeup_events);
  EXPECT_EQ(a.wakeups_delivered, b.wakeups_delivered);
  EXPECT_EQ(a.max_merge_width, b.max_merge_width);
}

RunSpec equivalence_spec(const std::string& workload, bool fast_forward) {
  RunSpec spec;
  spec.workload = workload;
  spec.params.samples = 48;
  spec.fast_forward = fast_forward;
  return spec;
}

/// Every field of the lockstep metrics.
void expect_lockstep_equal(const core::LockstepMetrics& a,
                           const core::LockstepMetrics& b) {
  EXPECT_EQ(a.observed_cycles, b.observed_cycles);
  EXPECT_EQ(a.full_lockstep_cycles, b.full_lockstep_cycles);
  EXPECT_TRUE(a == b);
}

/// One drive on a platform loaded as `Engine::run_one` loads it, with the
/// lockstep analyzer attached as `Engine` attaches it when `observe`, or
/// bare — perfbench's `simulate_bare` path — when not.
struct PlatformDrive {
  sim::RunResult result;
  sim::EventCounters counters;
  core::SynchronizerStats sync_stats;
  core::LockstepMetrics lockstep;
  std::string verify_error;
};

PlatformDrive drive_platform(const std::string& workload, bool fast_forward,
                             bool observe) {
  const RunSpec spec = equivalence_spec(workload, fast_forward);
  const auto bound = Registry::builtins().make(spec.workload, spec.params);
  sim::Platform platform(scenario::resolved_config(spec, *bound));
  platform.load_program(bound->program(spec.with_synchronizer()));
  bound->load_inputs(platform);
  core::LockstepAnalyzer analyzer;
  if (observe) analyzer.attach(platform);
  PlatformDrive drive;
  drive.result = bound->drive(platform, spec.max_cycles);
  drive.counters = platform.counters();
  drive.sync_stats = platform.sync_stats();
  drive.lockstep = analyzer.metrics();
  // As `finish_record` judges a run: only a legal final state verifies.
  const bool finished =
      drive.result.status == sim::RunResult::Status::kAllHalted ||
      drive.result.status == sim::RunResult::Status::kAllAsleep;
  drive.verify_error =
      finished ? bound->verify(platform) : drive.result.to_string();
  return drive;
}

void expect_drives_equal(const PlatformDrive& fast,
                         const PlatformDrive& naive) {
  EXPECT_EQ(fast.verify_error, "");
  EXPECT_EQ(naive.verify_error, "");
  EXPECT_EQ(fast.result.status, naive.result.status);
  EXPECT_EQ(fast.result.cycles, naive.result.cycles);
  expect_counters_equal(fast.counters, naive.counters);
  expect_sync_stats_equal(fast.sync_stats, naive.sync_stats);
  expect_lockstep_equal(fast.lockstep, naive.lockstep);
}

// --- region executor on/off equivalence -------------------------------------

class FastForwardEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(FastForwardEquivalence, CountersAndStatusIdentical) {
  // Without the analyzer: the executor's own lockstep bookkeeping is off.
  expect_drives_equal(drive_platform(GetParam(), true, false),
                      drive_platform(GetParam(), false, false));
}

TEST_P(FastForwardEquivalence, LockstepMetricsIdentical) {
  // With the analyzer attached as the platform's lockstep sink, which the
  // executor keeps up to date itself: both counts must match.
  const PlatformDrive fast = drive_platform(GetParam(), true, true);
  const PlatformDrive naive = drive_platform(GetParam(), false, true);
  expect_drives_equal(fast, naive);
  EXPECT_GT(fast.lockstep.observed_cycles, 0u);
}

// Every builtin, sleepgen included: the only one where straight-line steps
// serve most cycles.
INSTANTIATE_TEST_SUITE_P(Builtins, FastForwardEquivalence,
                         ::testing::Values("mrpfltr", "sqrt32", "mrpdln",
                                           "sqrt32.auto", "clip8", "bandcount",
                                           "streaming", "sleepgen"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name)
                             if (c == '.') c = '_';
                           return name;
                         });

// --- the executor engages (and is exact) at the platform level --------------

assembler::Program compile(std::string_view source) {
  auto result = assembler::assemble(source);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

// Two barriers: all cores check out, sleep, and wake together — every wake
// opens a wake-up-ramp window in which no core fetches.
constexpr std::string_view kBarrierKernel = R"(
    movi r1, 0
  loop:
    addi r1, r1, 1
    sinc #0
    sdec #0
    cmpi r1, 20
    blt  loop
    halt
)";

// A long straight-line ALU run: the straight-line step's home turf.
constexpr std::string_view kStraightKernel = R"(
    movi r2, 200
  loop:
    addi r1, r1, 1
    xor  r3, r3, r1
    slli r4, r1, 2
    add  r5, r5, r4
    sub  r6, r5, r3
    andi r6, r6, 0x3FF
    or   r7, r7, r6
    addi r2, r2, -1
    cmpi r2, 0
    bne  loop
    halt
)";

TEST(FastForward, CountsFetcherlessCyclesOnBarrierKernel) {
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  platform.load_program(compile(kBarrierKernel));
  const auto result = platform.run(1'000'000);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_GT(platform.fast_forwarded_cycles(), 0u);
  EXPECT_LE(platform.fast_forwarded_cycles(), platform.counters().cycles);
}

TEST(FastForward, DisabledByConfigFlag) {
  // The one knob turns every path off: all three path counters stay 0 on
  // a kernel that engages all three when it is on (lockstep cores: straight
  // steps, their bubbles, and an arbitrated cycle per loop branch).
  auto run = [](bool fast_forward) {
    auto config = sim::PlatformConfig::with_synchronizer();
    config.start_stagger_cycles = 0;
    config.fast_forward = fast_forward;
    auto platform = std::make_unique<sim::Platform>(config);
    platform->load_program(compile(kStraightKernel));
    EXPECT_TRUE(platform->run(10'000'000).ok());
    return platform;
  };
  const auto on = run(true);
  EXPECT_GT(on->fetch_region_cycles(), 0u);
  EXPECT_GT(on->burst_cycles(), 0u);
  EXPECT_GT(on->fast_forwarded_cycles(), 0u);
  const auto off = run(false);
  EXPECT_EQ(off->fetch_region_cycles(), 0u);
  EXPECT_EQ(off->burst_cycles(), 0u);
  EXPECT_EQ(off->fast_forwarded_cycles(), 0u);
  expect_counters_equal(on->counters(), off->counters());
}

TEST(FastForward, RespectsMaxCyclesExactly) {
  // A budget that expires inside a straight-line step or an idle stretch
  // must stop at exactly the budget, like the naive loop does.
  for (const std::string_view kernel : {kBarrierKernel, kStraightKernel}) {
    for (const std::uint64_t budget : {17u, 50u, 137u, 333u, 1000u, 2000u}) {
      auto on = sim::PlatformConfig::with_synchronizer();
      auto off = on;
      off.fast_forward = false;
      sim::Platform p_on(on);
      sim::Platform p_off(off);
      p_on.load_program(compile(kernel));
      p_off.load_program(compile(kernel));
      const auto r_on = p_on.run(budget);
      const auto r_off = p_off.run(budget);
      EXPECT_EQ(r_on.cycles, r_off.cycles) << "budget " << budget;
      EXPECT_EQ(static_cast<int>(r_on.status), static_cast<int>(r_off.status));
      expect_counters_equal(p_on.counters(), p_off.counters());
    }
  }
}

TEST(FastForward, TraceAndVcdIdentical) {
  // An attached observer suppresses the executor, so trace/VCD output is
  // identical by construction — assert it anyway: this is the documented
  // contract that waveforms never change when the executor is enabled.
  for (const std::string_view kernel : {kBarrierKernel, kStraightKernel}) {
    auto run_traced = [&](bool fast_forward) {
      auto config = sim::PlatformConfig::with_synchronizer();
      config.fast_forward = fast_forward;
      sim::Platform platform(config);
      platform.load_program(compile(kernel));
      sim::TimelineTracer tracer;
      tracer.attach(platform);
      std::ostringstream vcd_out;
      sim::VcdWriter vcd(vcd_out);
      vcd.attach(platform);  // replaces the tracer as observer
      EXPECT_TRUE(platform.run(1'000'000).ok());
      vcd.finish();
      EXPECT_EQ(platform.fast_forwarded_cycles(), 0u);
      return vcd_out.str();
    };
    EXPECT_EQ(run_traced(true), run_traced(false));

    auto run_timeline = [&](bool fast_forward) {
      auto config = sim::PlatformConfig::with_synchronizer();
      config.fast_forward = fast_forward;
      sim::Platform platform(config);
      platform.load_program(compile(kernel));
      sim::TimelineTracer tracer;
      tracer.attach(platform);
      EXPECT_TRUE(platform.run(1'000'000).ok());
      return tracer.timeline(400);
    };
    EXPECT_EQ(run_timeline(true), run_timeline(false));
  }
}

TEST(FastForward, InterruptDrivenWakeupMatchesNaive) {
  // Duty-cycle shape: all cores SLEEP, the host wakes them by interrupt;
  // the post-interrupt wake-up ramp is a fetcherless window.
  constexpr std::string_view kSleepKernel = R"(
      movi r2, 0
    loop:
      addi r2, r2, 1
      sleep
      cmpi r2, 5
      blt  loop
      halt
  )";
  auto drive = [&](bool fast_forward) {
    auto config = sim::PlatformConfig::with_synchronizer();
    config.fast_forward = fast_forward;
    sim::Platform platform(config);
    platform.load_program(compile(kSleepKernel));
    std::uint64_t ff_seen = 0;
    for (int window = 0; window < 10; ++window) {
      const auto result = platform.run(100'000);
      if (result.status != sim::RunResult::Status::kAllAsleep) break;
      platform.interrupt_all();
    }
    ff_seen = platform.fast_forwarded_cycles();
    return std::pair<std::uint64_t, std::uint64_t>(platform.counters().cycles,
                                                   ff_seen);
  };
  const auto [cycles_on, ff_on] = drive(true);
  const auto [cycles_off, ff_off] = drive(false);
  EXPECT_EQ(cycles_on, cycles_off);
  EXPECT_GT(ff_on, 0u);
  EXPECT_EQ(ff_off, 0u);
}

TEST(RegionExecutor, StraightStepsRetireStraightLineRuns) {
  // A single fetcher is always at a conflict-free fetch boundary;
  // staggered multi-core starts are covered by the equivalence suite.
  auto config = sim::PlatformConfig::with_synchronizer();
  config.num_cores = 1;
  sim::Platform platform(config);
  platform.load_program(compile(kStraightKernel));
  ASSERT_TRUE(platform.run(1'000'000).ok());
  EXPECT_GT(platform.burst_cycles(), 0u);
  EXPECT_LE(platform.burst_cycles(), platform.counters().cycles);
}

TEST(RegionExecutor, ArbitratedCyclesCoverSerializedFetch) {
  // Eight staggered cores on one short loop serialize on the IM bank.
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  platform.load_program(compile(kStraightKernel));
  ASSERT_TRUE(platform.run(10'000'000).ok());
  EXPECT_GT(platform.fetch_region_cycles(), 0u);
}

TEST(RegionExecutor, SuppressedByObserver) {
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  platform.load_program(compile(kStraightKernel));
  std::uint64_t observed = 0;
  platform.set_observer([&](const sim::Platform&) { ++observed; });
  ASSERT_TRUE(platform.run(1'000'000).ok());
  EXPECT_EQ(platform.burst_cycles(), 0u);
  EXPECT_EQ(platform.fetch_region_cycles(), 0u);
  EXPECT_EQ(platform.fast_forwarded_cycles(), 0u);
  EXPECT_EQ(observed, platform.counters().cycles);
}

TEST(RegionExecutor, LockstepCountsEveryPcOutsideTheProgram) {
  // Cores 0 and 1 jump past the default 32 768-slot IM (to 0xFFFF and
  // 0xFFFE) and core 2 branches below slot 0. None traps before it fetches
  // there, so the branch penalty holds them idle at those PCs while cores
  // 3-7 keep executing. A PC that leaves the program ends the region after
  // its cycle, and the naive loop observes the cycles that follow, also
  // when a window boundary falls among them.
  constexpr std::string_view kRunawayKernel = R"(
      csrr r1, #0
      cmpi r1, 3
      blt  leave
      movi r3, 30
    stay:
      addi r3, r3, -1
      cmpi r3, 0
      bne  stay
      halt
    leave:
      cmpi r1, 2
      beq  wrap
      movi r2, -1
      sub  r2, r2, r1
      jr   r2
    wrap:
      bra  -2
  )";
  auto config = sim::PlatformConfig::with_synchronizer();
  config.start_stagger_cycles = 0;
  config.branch_taken_penalty = 6;
  ASSERT_LT(config.im_slots(), 0xFFFEu);
  auto naive_config = config;
  naive_config.fast_forward = false;
  for (const std::uint64_t window : {3u, 7u, 1000u}) {
    sim::Platform fast(config);
    sim::Platform naive(naive_config);
    fast.load_program(compile(kRunawayKernel));
    naive.load_program(compile(kRunawayKernel));
    core::LockstepAnalyzer fast_lockstep;
    core::LockstepAnalyzer naive_lockstep;
    fast_lockstep.attach(fast);
    naive_lockstep.attach(naive);
    sim::RunResult result;
    do {
      const std::uint64_t target = fast.counters().cycles + window;
      result = fast.run(target);
      ASSERT_EQ(result, naive.run(target)) << "window " << window;
      expect_lockstep_equal(fast_lockstep.metrics(), naive_lockstep.metrics());
      expect_counters_equal(fast.counters(), naive.counters());
    } while (result.status == sim::RunResult::Status::kMaxCycles);
    EXPECT_EQ(result.status, sim::RunResult::Status::kTrap);
    EXPECT_EQ(result.trap, sim::TrapKind::kImOutOfRange);
    EXPECT_EQ(result.trap_pc, 0xFFFFu);
    EXPECT_GT(fast.fetch_region_cycles(), 0u);
  }
}

TEST(RegionExecutor, LockstepCountsClearedAfterATrapInTheRegion) {
  // A core that traps inside the region leaves the executor's per-slot
  // core masks, which must be all zero when the region exits, so a second
  // run on the same platform observes and arbitrates exactly as the naive
  // loop does.
  auto config = sim::PlatformConfig::with_synchronizer();
  config.start_stagger_cycles = 0;
  auto naive_config = config;
  naive_config.fast_forward = false;

  // Core 5 loads past the end of DM while the others leave for `done`.
  constexpr std::string_view kTrapKernel = R"(
      csrr r1, #0
      movi r3, 12
    loop:
      addi r3, r3, -1
      cmpi r3, 0
      bne  loop
      cmpi r1, 5
      bne  done
      movi r2, -1
      ld   r4, [r2]
    done:
      addi r3, r3, 1
      halt
  )";
  {
    sim::Platform fast(config);
    sim::Platform naive(naive_config);
    fast.load_program(compile(kTrapKernel));
    naive.load_program(compile(kTrapKernel));
    core::LockstepAnalyzer fast_lockstep;
    core::LockstepAnalyzer naive_lockstep;
    fast_lockstep.attach(fast);
    naive_lockstep.attach(naive);
    for (int run = 0; run < 2; ++run) {
      const auto result = fast.run(10'000);
      ASSERT_EQ(result, naive.run(10'000)) << "run " << run;
      EXPECT_EQ(result.status, sim::RunResult::Status::kTrap);
      EXPECT_EQ(result.trap, sim::TrapKind::kDmOutOfRange);
      EXPECT_EQ(result.trap_core, 5u);
      EXPECT_GT(fast.fetch_region_cycles(), 0u);
      expect_lockstep_equal(fast_lockstep.metrics(), naive_lockstep.metrics());
      expect_counters_equal(fast.counters(), naive.counters());
      fast.reset();
      naive.reset();
      fast_lockstep.reset();
      naive_lockstep.reset();
    }
  }

  // Core 5 alone at its PC when it traps. Each core loads, from its own DM
  // bank, the address it visits at `probe` (0: skip it). The first run
  // sends only core 5 there, with an address past DM; it traps in the
  // region while the others loop in `skip`. After a reset every core but 5
  // visits with a good address and core 5 skips, all on one IM bank, so a
  // bit core 5 kept at `probe` would pull it into their broadcast fetch.
  constexpr std::string_view kAloneKernel = R"(
      csrr r1, #0
      slli r6, r1, 11
      ld   r2, [r6]
      cmpi r2, 0
      beq  skip
    probe:
      ld   r4, [r2]
      halt
    skip:
      addi r5, r5, 1
      cmpi r5, 8
      blt  skip
      halt
  )";
  config.arbitration = sim::ArbitrationPolicy::kFixedPriority;
  naive_config.arbitration = config.arbitration;
  sim::Platform fast(config);
  sim::Platform naive(naive_config);
  fast.load_program(compile(kAloneKernel));
  naive.load_program(compile(kAloneKernel));
  core::LockstepAnalyzer fast_lockstep;
  core::LockstepAnalyzer naive_lockstep;
  fast_lockstep.attach(fast);
  naive_lockstep.attach(naive);
  for (int run = 0; run < 2; ++run) {
    for (unsigned core = 0; core < config.num_cores; ++core) {
      const std::uint32_t bank_base = core << 11;
      const std::uint32_t visit = run == 0 ? (core == 5 ? 0xFFFF : 0)
                                           : (core == 5 ? 0 : bank_base + 1);
      fast.dm_write(bank_base, static_cast<std::uint16_t>(visit));
      naive.dm_write(bank_base, static_cast<std::uint16_t>(visit));
    }
    const auto result = fast.run(10'000);
    ASSERT_EQ(result, naive.run(10'000)) << "alone, run " << run;
    if (run == 0) {
      EXPECT_EQ(result.status, sim::RunResult::Status::kTrap);
      EXPECT_EQ(result.trap, sim::TrapKind::kDmOutOfRange);
      EXPECT_EQ(result.trap_core, 5u);
    } else {
      EXPECT_TRUE(result.ok()) << result.to_string();
    }
    EXPECT_GT(fast.fetch_region_cycles(), 0u);
    expect_lockstep_equal(fast_lockstep.metrics(), naive_lockstep.metrics());
    expect_counters_equal(fast.counters(), naive.counters());
    ASSERT_TRUE(sim::snapshots_equal(fast.save_snapshot(),
                                     naive.save_snapshot(),
                                     sim::DivergenceScope::kFullState))
        << "alone, run " << run << "\n"
        << sim::diff_snapshots(fast.save_snapshot(), naive.save_snapshot());
    fast.reset();
    naive.reset();
    fast_lockstep.reset();
    naive_lockstep.reset();
  }
}

TEST(RegionExecutor, StepCutByTheBudgetAfterAnArbitratedCycle) {
  // On one IM bank (block mapping), the cores pass an arbitrated `beq`,
  // then step through `block` in lockstep. First budgets from 1 to 12 end
  // a run at every point of that stretch, five of them inside the step
  // that follows the `beq`; each run then continues to the end. Core 0
  // later runs `block` again while cores 1-7 loop in `others` on the same
  // bank, so a core mask left at `block` by the step the budget cut would
  // serve cores 1-7 `block`'s instruction.
  constexpr std::string_view kKernel = R"(
      csrr r1, #0
      movi r3, 2
      cmpi r1, 99
      beq  out
    block:
      addi r4, r4, 1
      addi r4, r4, 2
      addi r4, r4, 3
      addi r4, r4, 4
      cmpi r1, 0
      bne  others
      addi r3, r3, -1
      cmpi r3, 0
      bne  block
    out:
      halt
    others:
      addi r5, r5, 1
      cmpi r5, 30
      blt  others
      halt
  )";
  auto config = sim::PlatformConfig::with_synchronizer();
  config.base_cpi = 1;
  config.start_stagger_cycles = 0;
  config.im_line_slots = 0;
  config.arbitration = sim::ArbitrationPolicy::kFixedPriority;
  auto naive_config = config;
  naive_config.fast_forward = false;
  for (std::uint64_t first = 1; first <= 12; ++first) {
    sim::Platform fast(config);
    sim::Platform naive(naive_config);
    fast.load_program(compile(kKernel));
    naive.load_program(compile(kKernel));
    core::LockstepAnalyzer fast_lockstep;
    core::LockstepAnalyzer naive_lockstep;
    fast_lockstep.attach(fast);
    naive_lockstep.attach(naive);
    ASSERT_EQ(fast.run(first), naive.run(first)) << "first budget " << first;
    const auto result = fast.run(10'000);
    ASSERT_EQ(result, naive.run(10'000)) << "first budget " << first;
    EXPECT_TRUE(result.ok()) << result.to_string();
    EXPECT_GT(fast.burst_cycles(), 0u);
    EXPECT_GT(fast.fetch_region_cycles(), 0u);
    expect_lockstep_equal(fast_lockstep.metrics(), naive_lockstep.metrics());
    expect_counters_equal(fast.counters(), naive.counters());
    ASSERT_TRUE(sim::snapshots_equal(fast.save_snapshot(),
                                     naive.save_snapshot(),
                                     sim::DivergenceScope::kFullState))
        << "first budget " << first << "\n"
        << sim::diff_snapshots(fast.save_snapshot(), naive.save_snapshot());
  }
}

TEST(RegionExecutor, PoisonedCoreRejoinsAtItsDeadline) {
  // Core 5's taken branch lands on a slot only the naive tick handles
  // while the other cores keep arbitrating on one IM bank. Its bubble
  // (base_cpi 2 plus a 3-cycle taken-branch penalty) outlasts the short
  // windows, so regions start with core 5 idle on that slot: it is
  // poisoned on its first validation in the region, rejoins the fetch set
  // as its bubble expires, and the deadline ends the region before it is
  // arbitrated.
  auto config = sim::PlatformConfig::with_synchronizer();
  config.num_cores = 8;
  config.base_cpi = 2;
  config.branch_taken_penalty = 3;
  auto naive_config = config;
  naive_config.fast_forward = false;
  for (const std::string_view landing : {"halt", "sleep", "sinc #0"}) {
    const std::string kernel = R"(
        csrr r1, #0
        movi r3, 24
      loop:
        addi r3, r3, -1
        cmpi r3, 16
        bne  stay
        cmpi r1, 5
        beq  leave
      stay:
        cmpi r3, 0
        bne  loop
        halt
      leave:
        )" + std::string(landing) + R"(
        halt
    )";
    for (const std::uint64_t window : {1u, 2u, 3u, 7u, 1000u}) {
      sim::Platform fast(config);
      sim::Platform naive(naive_config);
      fast.load_program(compile(kernel));
      naive.load_program(compile(kernel));
      sim::RunResult result;
      do {
        const std::uint64_t target = fast.counters().cycles + window;
        result = fast.run(target);
        ASSERT_EQ(result, naive.run(target))
            << landing << ", window " << window;
        expect_counters_equal(fast.counters(), naive.counters());
        ASSERT_TRUE(sim::snapshots_equal(fast.save_snapshot(),
                                         naive.save_snapshot(),
                                         sim::DivergenceScope::kFullState))
            << landing << ", window " << window << "\n"
            << sim::diff_snapshots(fast.save_snapshot(), naive.save_snapshot());
      } while (result.status == sim::RunResult::Status::kMaxCycles);
      EXPECT_EQ(result.status, landing == "sleep"
                                   ? sim::RunResult::Status::kAllAsleep
                                   : sim::RunResult::Status::kAllHalted)
          << landing << ", window " << window;
      EXPECT_GT(fast.fetch_region_cycles(), 0u);
    }
  }
}

// --- predecode round-trip ---------------------------------------------------

TEST(DecodedImage, EncodedAndDecodedLoadsAgree) {
  const auto program = compile(kBarrierKernel);
  const sim::PlatformConfig config;
  sim::DecodedImage from_code(config.im_slots(), config.im_banks,
                              config.im_bank_slots, config.im_line_slots);
  ASSERT_EQ(from_code.load(program.origin, program.code), "");
  sim::DecodedImage from_image(config.im_slots(), config.im_banks,
                               config.im_bank_slots, config.im_line_slots);
  ASSERT_EQ(from_image.load_encoded(program.origin, program.image), "");
  EXPECT_EQ(from_code, from_image);
  for (std::uint32_t pc = from_code.begin(); pc < from_code.end(); ++pc) {
    EXPECT_EQ(from_code.at(pc), from_image.at(pc)) << "slot " << pc;
  }
}

TEST(DecodedImage, RejectsUndecodableWord) {
  const sim::PlatformConfig config;
  sim::DecodedImage image(config.im_slots(), config.im_banks,
                          config.im_bank_slots, config.im_line_slots);
  const std::uint32_t bad_word = 0xFFFFFFFFu;  // invalid opcode bits
  const std::string error = image.load_encoded(0, {&bad_word, 1});
  EXPECT_NE(error.find("undecodable"), std::string::npos) << error;
}

TEST(DecodedImage, BankTableMatchesMappingRule) {
  // bank_of is defined for in-program slots, so cover the whole image with
  // a program before probing the mapping.
  const std::vector<isa::Instruction> filler(
      256, isa::Instruction{isa::Opcode::kHalt, 0, 0, 0, 0});
  {
    sim::DecodedImage lined(256, 8, 32, 16);  // line-interleaved
    ASSERT_EQ(lined.load(0, filler), "");
    for (std::uint32_t pc = 0; pc < 256; ++pc)
      EXPECT_EQ(lined.bank_of(pc), (pc / 16) % 8) << pc;
  }
  {
    sim::DecodedImage blocked(256, 8, 32, 0);  // pure block mapping
    ASSERT_EQ(blocked.load(0, filler), "");
    for (std::uint32_t pc = 0; pc < 256; ++pc)
      EXPECT_EQ(blocked.bank_of(pc), pc / 32) << pc;
  }
}

TEST(DecodedImage, FingerprintIsFnvOverTheDocumentedFields) {
  // FNV-1a over 8-byte little-endian values: the slot count, the program
  // bounds, each instruction's packed fields, then the bank of every slot.
  // The golden snapshots and recordings pin these bytes on the default
  // geometry; this pins them on uneven line-interleaved and block
  // geometries too.
  const auto program = compile(kBarrierKernel);
  const std::uint32_t origin = 5;
  struct Geometry {
    unsigned slots, banks, bank_slots, line_slots;
  };
  for (const Geometry g : {Geometry{256, 8, 32, 16}, Geometry{300, 3, 100, 7},
                           Geometry{256, 8, 32, 0}, Geometry{96, 5, 20, 0}}) {
    sim::DecodedImage image(g.slots, g.banks, g.bank_slots, g.line_slots);
    ASSERT_EQ(image.load(origin, program.code), "");
    std::vector<std::uint8_t> bytes;
    const auto put = [&bytes](std::uint64_t value) {
      for (unsigned byte = 0; byte < 8; ++byte)
        bytes.push_back(static_cast<std::uint8_t>(value >> (8 * byte)));
    };
    put(g.slots);
    put(origin);
    put(origin + program.code.size());
    for (const isa::Instruction& instr : program.code) {
      put(static_cast<std::uint64_t>(instr.op) |
          (static_cast<std::uint64_t>(instr.rd) << 8) |
          (static_cast<std::uint64_t>(instr.ra) << 16) |
          (static_cast<std::uint64_t>(instr.rb) << 24) |
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(instr.imm))
           << 32));
    }
    for (std::uint32_t pc = 0; pc < g.slots; ++pc) {
      put(static_cast<std::uint16_t>(g.line_slots == 0
                                         ? pc / g.bank_slots
                                         : (pc / g.line_slots) % g.banks));
    }
    EXPECT_EQ(image.fingerprint(), util::fnv1a64(bytes))
        << g.slots << " slots, line " << g.line_slots;
  }
}

TEST(Platform, LoadImageRunsIdenticallyToLoadProgram) {
  const auto program = compile(kBarrierKernel);
  const auto config = sim::PlatformConfig::with_synchronizer();
  sim::Platform from_code(config);
  from_code.load_program(program);
  sim::Platform from_image(config);
  from_image.load_image(program.origin, program.image);
  const auto r1 = from_code.run(1'000'000);
  const auto r2 = from_image.run(1'000'000);
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r1.cycles, r2.cycles);
  expect_counters_equal(from_code.counters(), from_image.counters());
}

TEST(Platform, LoadImageThrowsOnBadWord) {
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  const std::uint32_t bad_word = 0xFFFFFFFFu;
  EXPECT_THROW(platform.load_image(0, {&bad_word, 1}), std::invalid_argument);
}

TEST(Platform, BothLoadPathsRefuseAProgramThatDoesNotFit) {
  // A 2-bank x 16-slot IM with block mapping. A program one slot too long,
  // and one whose `.org` puts its last slot past the IM, are refused by
  // both load paths with one message, in every build type; a program that
  // ends on the last slot loads.
  auto config = sim::PlatformConfig::with_synchronizer();
  config.im_banks = 2;
  config.im_bank_slots = 16;
  config.im_line_slots = 0;
  std::string one_too_long;
  for (int slot = 0; slot < 32; ++slot) one_too_long += "  movi r1, 1\n";
  one_too_long += "  halt\n";
  for (const std::string& source :
       {one_too_long, std::string(".org 31\n  movi r1, 7\n  halt\n")}) {
    const auto program = compile(source);
    const std::string want =
        "image does not fit: origin " + std::to_string(program.origin) +
        " + " + std::to_string(program.code.size()) + " words > 32 slots";
    sim::Platform platform(config);
    try {
      platform.load_program(program);
      ADD_FAILURE() << "load_program accepted: " << want;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(error.what(), want);
    }
    try {
      platform.load_image(program.origin, program.image);
      ADD_FAILURE() << "load_image accepted: " << want;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(error.what(), want);
    }
  }
  sim::Platform platform(config);
  platform.load_program(compile(".org 30\n  movi r1, 7\n  halt\n"));
  EXPECT_TRUE(platform.run(100).ok());
  EXPECT_EQ(platform.core_reg(0, 1), 7u);
}

}  // namespace
}  // namespace ulpsync
