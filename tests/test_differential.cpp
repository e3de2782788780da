// Differential testing with randomly generated programs.
//
// A structured generator emits random but well-formed TR16 kernels:
// per-core data, arithmetic, private-bank loads/stores, shared-bank
// contention (read-only broadcast loads and per-core read-modify-write
// sequences on one shared bank), uniform counted loops, top-level
// sleep/interrupt-wake windows, and nested data-dependent diamonds (the
// divergence source). Each program is run three ways — baseline design,
// synchronized design with the automatic instrumentation pass, and
// synchronized with no instrumentation — and all three must produce
// identical architectural results. This checks, across thousands of random
// control-flow shapes, the core claim that synchronization changes *timing
// only*.
//
// Shared traffic is constructed to be timing-independent: shared loads read
// a bank the program never writes, and shared read-modify-write sequences
// target per-core slots of a common bank (bank conflicts, no races). Only
// such traffic can ride along with the three-way equivalence check — a
// racing shared store would make the final memory image depend on
// arbitration timing, which differs across designs by design.
//
// On a mismatch, the harness writes both final platform snapshots and
// their diff to divergence_artifacts/ (override with ULPSYNC_ARTIFACT_DIR)
// so CI can upload the pair. The DivergenceBisection suite exercises the
// one divergence bisector, sim::find_first_divergence: two replay cursors
// (over an empty schedule for two plain runs) compared by the one state
// rule, sim::snapshots_equal, at checkpoints, then single-stepped to the
// exact first divergent cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "core/instrument.h"
#include "core/lockstep.h"
#include "sim/event_schedule.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "util/rng.h"

namespace ulpsync {
namespace {

/// DM layout of the generated programs (bank = addr / 2048):
///   bank 0      — sync checkpoint words (instrumented variant only)
///   bank 1      — shared read-only constants (broadcast-load target)
///   banks 2..9  — per-core private bank of core c at (2+c)*2048
///   bank 10     — shared contended bank: per-core RMW slots at
///                 kSharedRmwBase + 8*k + core
constexpr std::uint32_t kSharedConstBase = 2048;
constexpr std::uint32_t kSharedRmwBase = 10 * 2048;

/// Emits a random program. All loops have compile-time trip counts (the
/// programs always terminate); memory traffic follows the layout above, so
/// results are identical across designs regardless of timing.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    out_.str("");
    label_counter_ = 0;
    out_ << "    csrr r1, #0\n"
            "    addi r4, r1, 2\n"
            "    movi r5, 11\n"
            "    sll  r3, r4, r5\n";  // r3 = private bank base
    // Seed the working registers from per-core memory.
    for (unsigned r = 4; r <= 9; ++r) {
      out_ << "    ldx  r" << r << ", [r3+r1]\n"
           << "    addi r" << r << ", r" << r << ", "
           << rng_.next_in_range(-100, 100) << "\n";
    }
    const unsigned blocks = 3 + static_cast<unsigned>(rng_.next_below(5));
    for (unsigned b = 0; b < blocks; ++b) {
      emit_block(/*depth=*/0);
      // Top-level duty-cycle window: every core executes the same sleep
      // sequence (uniform code path), so the platform periodically reaches
      // all-asleep and the host drive loop wakes it by interrupt.
      if (rng_.next_below(4) == 0) out_ << "    sleep\n";
    }
    // Publish results.
    for (unsigned r = 4; r <= 9; ++r) {
      out_ << "    movi r12, " << (1024 + (r - 4) * 16) << "\n"
           << "    add  r12, r12, r3\n"
           << "    stx  r" << r << ", [r12+r1]\n";
    }
    out_ << "    halt\n";
    return out_.str();
  }

 private:
  unsigned reg() { return 4 + static_cast<unsigned>(rng_.next_below(6)); }

  std::string fresh_label(const char* stem) {
    return std::string(stem) + std::to_string(label_counter_++);
  }

  void emit_alu() {
    static constexpr const char* kOps[] = {"add", "sub", "and", "or",
                                           "xor", "mul"};
    const char* op = kOps[rng_.next_below(6)];
    out_ << "    " << op << " r" << reg() << ", r" << reg() << ", r" << reg()
         << "\n";
  }

  void emit_mem() {
    // Private-bank access at a masked offset: addr = r3 + (rX & 0x1FF).
    const unsigned value = reg();
    const unsigned index = reg();
    out_ << "    andi r13, r" << index << ", 0x1FF\n";
    if (rng_.next_below(2) == 0) {
      out_ << "    ldx  r" << value << ", [r3+r13]\n";
    } else {
      out_ << "    stx  r" << value << ", [r3+r13]\n";
    }
  }

  void emit_shared_load() {
    // Broadcast-load contention: every core reads the shared read-only
    // constant bank at a data-dependent offset. Cores in lockstep with
    // equal indices broadcast; diverged cores conflict on the bank.
    out_ << "    andi r10, r" << reg() << ", 0x1FF\n"
         << "    movi r11, " << kSharedConstBase << "\n"
         << "    add  r11, r11, r10\n"
         << "    ldx  r" << reg() << ", [r11+r0]\n";
  }

  void emit_shared_rmw() {
    // Read-modify-write sequence on this core's slot of the shared
    // contended bank: all cores hammer one bank (conflict serialization,
    // policy groups) but never one another's words (no races).
    static constexpr const char* kOps[] = {"add", "xor", "sub"};
    const unsigned slot = static_cast<unsigned>(rng_.next_below(8));
    out_ << "    movi r11, " << (kSharedRmwBase + 8 * slot) << "\n"
         << "    add  r11, r11, r1\n"
         << "    ldx  r10, [r11+r0]\n"
         << "    " << kOps[rng_.next_below(3)] << " r10, r10, r" << reg() << "\n"
         << "    stx  r10, [r11+r0]\n";
  }

  void emit_diamond(int depth) {
    const std::string else_label = fresh_label("else_");
    const std::string join_label = fresh_label("join_");
    out_ << "    cmpi r" << reg() << ", " << rng_.next_in_range(-50, 50) << "\n";
    static constexpr const char* kBranches[] = {"beq", "bne", "blt",
                                                "bge", "bltu", "bgeu"};
    out_ << "    " << kBranches[rng_.next_below(6)] << " " << else_label << "\n";
    const unsigned then_len = 1 + static_cast<unsigned>(rng_.next_below(3));
    for (unsigned i = 0; i < then_len; ++i) emit_simple(depth);
    out_ << "    bra " << join_label << "\n" << else_label << ":\n";
    const unsigned else_len = static_cast<unsigned>(rng_.next_below(3));
    for (unsigned i = 0; i < else_len; ++i) emit_simple(depth);
    out_ << join_label << ":\n";
  }

  void emit_loop(int depth) {
    const std::string head = fresh_label("head_");
    const unsigned trips = 2 + static_cast<unsigned>(rng_.next_below(6));
    // One counter register per nesting depth (r14 outer, r15 inner).
    const char* counter = depth == 0 ? "r14" : "r15";
    out_ << "    movi " << counter << ", " << trips << "\n" << head << ":\n";
    const unsigned body = 1 + static_cast<unsigned>(rng_.next_below(3));
    for (unsigned i = 0; i < body; ++i) emit_block(depth + 1);
    out_ << "    addi " << counter << ", " << counter << ", -1\n"
         << "    cmpi " << counter << ", 0\n"
         << "    bne  " << head << "\n";
  }

  void emit_straight_chain() {
    // A long straight-line ALU run (4..20 instructions, no branches, no
    // memory): inside diamonds and loops these runs start at diverged PCs,
    // so they exercise the straight-line step's disjoint-bank case and the
    // region executor's conflict serialization — interleaved with the
    // IM-bank-conflicting fetch patterns the divergent control flow
    // creates.
    const unsigned length = 4 + static_cast<unsigned>(rng_.next_below(17));
    for (unsigned i = 0; i < length; ++i) {
      static constexpr const char* kOps[] = {"add", "sub", "xor", "and", "or"};
      switch (rng_.next_below(3)) {
        case 0:
          out_ << "    " << kOps[rng_.next_below(5)] << " r" << reg() << ", r"
               << reg() << ", r" << reg() << "\n";
          break;
        case 1:
          out_ << "    addi r" << reg() << ", r" << reg() << ", "
               << rng_.next_in_range(-64, 64) << "\n";
          break;
        default:
          out_ << "    slli r" << reg() << ", r" << reg() << ", "
               << rng_.next_below(4) << "\n";
          break;
      }
    }
  }

  void emit_simple(int depth) {
    switch (rng_.next_below(6)) {
      case 0: emit_alu(); break;
      case 1: emit_mem(); break;
      case 2: emit_shared_load(); break;
      case 3: emit_shared_rmw(); break;
      case 4: emit_straight_chain(); break;
      default:
        // Nested data-dependent diamonds, up to three levels deep.
        if (depth < 3) emit_diamond(depth + 1);
        else emit_alu();
    }
  }

  void emit_block(int depth) {
    switch (rng_.next_below(8)) {
      case 0: emit_alu(); break;
      case 1: emit_mem(); break;
      case 2: emit_shared_load(); break;
      case 3: emit_shared_rmw(); break;
      case 4:
      case 5: emit_diamond(depth); break;  // double weight: the divergence source
      case 6: emit_straight_chain(); break;
      default:
        if (depth < 2) emit_loop(depth);
        else emit_alu();
    }
  }

  util::Rng rng_;
  std::ostringstream out_;
  unsigned label_counter_ = 0;
};

void preload_inputs(sim::Platform& platform, std::uint64_t seed) {
  util::Rng rng(seed * 31 + 7);
  // Shared read-only constants (identical for every variant of a seed).
  for (unsigned offset = 0; offset < 512; ++offset) {
    platform.dm_write(kSharedConstBase + offset,
                      static_cast<std::uint16_t>(rng.next_below(0x10000)));
  }
  // Per-core private banks.
  for (unsigned c = 0; c < 8; ++c) {
    for (unsigned offset = 0; offset < 1024; ++offset) {
      platform.dm_write((2 + c) * 2048 + offset,
                        static_cast<std::uint16_t>(rng.next_below(0x10000)));
    }
  }
}

std::vector<std::uint16_t> result_snapshot(const sim::Platform& platform) {
  std::vector<std::uint16_t> snapshot;
  for (unsigned c = 0; c < 8; ++c) {
    const auto block = platform.dm_read_block((2 + c) * 2048, 2048);
    snapshot.insert(snapshot.end(), block.begin(), block.end());
  }
  // The shared contended bank holds per-core RMW results.
  const auto shared = platform.dm_read_block(kSharedRmwBase, 2048);
  snapshot.insert(snapshot.end(), shared.begin(), shared.end());
  return snapshot;
}

/// Runs to completion through the host wake loop: generated programs
/// contain top-level `sleep` windows, so an all-asleep stop is a request
/// for the next external wake-up, not a failure. Bounded: every wake-up
/// lets at least one core retire its sleep, so the loop terminates.
sim::RunResult run_with_wakeups(sim::Platform& platform, std::uint64_t budget) {
  sim::RunResult result = platform.run(budget);
  for (unsigned window = 0; window < 100'000; ++window) {
    if (result.status != sim::RunResult::Status::kAllAsleep) break;
    platform.interrupt_all();
    result = platform.run(budget);
  }
  return result;
}

/// Where divergence artifacts land (CI uploads this directory on failure).
std::filesystem::path artifact_dir() {
  const char* override_dir = std::getenv("ULPSYNC_ARTIFACT_DIR");
  return override_dir != nullptr ? std::filesystem::path(override_dir)
                                 : std::filesystem::path("divergence_artifacts");
}

void dump_divergence_artifacts(std::uint64_t seed, const std::string& variant,
                               const sim::Snapshot& reference,
                               const sim::Snapshot& diverged) {
  const std::filesystem::path dir = artifact_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;  // artifact dumping must never mask the test failure
  std::string tag = variant;
  for (auto& c : tag)
    if (c == '/' || c == ' ') c = '_';
  const std::string stem = "seed" + std::to_string(seed) + "_" + tag;
  try {
    sim::write_snapshot_file((dir / (stem + "_reference.snap")).string(),
                             reference);
    sim::write_snapshot_file((dir / (stem + "_diverged.snap")).string(),
                             diverged);
    std::ofstream delta(dir / (stem + "_delta.txt"));
    delta << sim::diff_snapshots(reference, diverged, 64);
  } catch (const std::exception&) {
    // Best effort only.
  }
}

class DifferentialRandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialRandomPrograms, AllDesignsComputeTheSameResults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  ProgramGenerator generator(seed);
  const std::string source = generator.generate();
  const auto assembled = assembler::assemble(source);
  ASSERT_TRUE(assembled.ok()) << assembled.error_text() << "\n" << source;

  const auto instrumented =
      core::auto_instrument(assembled.program, core::InstrumentOptions{});
  ASSERT_TRUE(instrumented.ok()) << instrumented.error;

  struct Variant {
    const char* name;
    const assembler::Program* program;
    bool with_sync;
  };
  const Variant variants[] = {
      {"baseline/plain", &assembled.program, false},
      {"synchronized/plain", &assembled.program, true},
      {"synchronized/auto-instrumented", &instrumented.program, true},
  };

  std::vector<std::uint16_t> reference;
  std::uint64_t reference_retired = 0;
  sim::Snapshot reference_state;
  for (const auto& variant : variants) {
    sim::Platform platform(variant.with_sync
                               ? sim::PlatformConfig::with_synchronizer()
                               : sim::PlatformConfig::without_synchronizer());
    platform.load_program(*variant.program);
    preload_inputs(platform, seed);
    const auto result = run_with_wakeups(platform, 20'000'000);
    ASSERT_TRUE(result.ok())
        << variant.name << ": " << result.to_string() << "\n" << source;
    const auto snapshot = result_snapshot(platform);
    const std::uint64_t useful =
        platform.counters().retired_ops - platform.sync_stats().checkins -
        platform.sync_stats().checkouts;
    if (reference.empty()) {
      reference = snapshot;
      reference_retired = useful;
      reference_state = platform.save_snapshot();
    } else {
      if (snapshot != reference) {
        dump_divergence_artifacts(seed, variant.name, reference_state,
                                  platform.save_snapshot());
      }
      EXPECT_EQ(snapshot, reference) << variant.name << " diverged\n" << source;
      EXPECT_EQ(useful, reference_retired) << variant.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandomPrograms,
                         ::testing::Range(1, 41));

TEST(DifferentialRandomPrograms, GeneratorEmitsDivergentControlFlow) {
  // Sanity: the generated corpus must actually contain data-dependent
  // branches (otherwise the suite above proves nothing).
  unsigned with_diamonds = 0;
  for (int seed = 1; seed <= 40; ++seed) {
    ProgramGenerator generator(static_cast<std::uint64_t>(seed));
    if (generator.generate().find("join_") != std::string::npos)
      ++with_diamonds;
  }
  EXPECT_GT(with_diamonds, 30u);
}

TEST(DifferentialRandomPrograms, GeneratorEmitsAllContentionShapes) {
  // Ditto for the contention shapes this suite claims to cover: shared
  // broadcast loads, shared-bank RMW sequences, and sleep windows must all
  // appear across the corpus.
  unsigned with_shared_load = 0;
  unsigned with_shared_rmw = 0;
  unsigned with_sleep = 0;
  // Markers unique to each emitter (an address literal alone would be
  // ambiguous: the const base 2048 is a string prefix of the RMW base
  // 20480).
  const std::string shared_load_marker = "add  r11, r11, r10";
  const std::string shared_rmw_marker = "ldx  r10, [r11+r0]";
  for (int seed = 1; seed <= 40; ++seed) {
    ProgramGenerator generator(static_cast<std::uint64_t>(seed));
    const std::string source = generator.generate();
    if (source.find(shared_load_marker) != std::string::npos) ++with_shared_load;
    if (source.find(shared_rmw_marker) != std::string::npos) ++with_shared_rmw;
    if (source.find("sleep") != std::string::npos) ++with_sleep;
  }
  EXPECT_GT(with_shared_load, 20u);
  EXPECT_GT(with_shared_rmw, 10u);
  EXPECT_GT(with_sleep, 10u);
}

// --- divergence bisection ----------------------------------------------------

constexpr std::string_view kFaultProbeKernel = R"(
    csrr r1, #0
    movi r2, 40
    movi r11, 2100       ; shared constant slot (bank 1)
  loop:
    ldx  r5, [r11+r0]
    add  r6, r6, r5
    addi r2, r2, -1
    cmpi r2, 0
    bne  loop
    addi r4, r1, 2
    movi r5, 11
    sll  r3, r4, r5
    stx  r6, [r3+r0]
    halt
)";

assembler::Program compile(std::string_view source) {
  auto result = assembler::assemble(source);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

/// (Platform is not movable — its crossbar/synchronizer members hold
/// references into the object — so probes are set up in place.)
void setup_probe(sim::Platform& platform) {
  platform.load_program(compile(kFaultProbeKernel));
  platform.dm_write(2100, 5);
}

/// The probe fault: a host write of the shared constant the probe loop
/// sums, recorded at cycle kInjectAt.
constexpr std::uint64_t kInjectAt = 37;

sim::EventSchedule probe_fault() {
  sim::ExternalEvent write;
  write.kind = sim::EventKind::kDmWrite;
  write.cycle = kInjectAt;
  write.addr = 2100;
  write.word = 999;
  sim::EventSchedule schedule;
  schedule.events.push_back(write);
  return schedule;
}

/// Bisects a plain probe run against one replaying `faulty_inputs`.
sim::DivergenceReport bisect_probe(const sim::EventSchedule& faulty_inputs,
                                   sim::DivergenceScope scope,
                                   std::uint64_t stride) {
  sim::Platform clean(sim::PlatformConfig::with_synchronizer());
  sim::Platform faulty(sim::PlatformConfig::with_synchronizer());
  setup_probe(clean);
  setup_probe(faulty);
  const sim::EventSchedule no_events;
  sim::ReplayCursor clean_cursor(clean, no_events, {});
  sim::ReplayCursor faulty_cursor(faulty, faulty_inputs, {});
  return sim::find_first_divergence(clean_cursor, faulty_cursor, 10'000,
                                    scope, stride);
}

/// Per-cycle checkpoints, a prime stride, one that splits the probe run,
/// and one past its end: the answer must not depend on the stride.
constexpr std::uint64_t kStrides[] = {1, 7, 64, 4096};

TEST(DivergenceBisection, IdenticalRunsNeverDiverge) {
  for (const std::uint64_t stride : kStrides) {
    const auto report =
        bisect_probe({}, sim::DivergenceScope::kFullState, stride);
    EXPECT_FALSE(report.diverged) << "stride " << stride << "\n"
                                  << report.delta;
  }
}

TEST(DivergenceBisection, FullStateScopeReportsTheCycleAfterTheWrite) {
  // A cursor delivers what is due at cycle C when it leaves C, so the
  // state at kInjectAt still agrees and the written word differs from the
  // next cycle on.
  for (const std::uint64_t stride : kStrides) {
    const auto report =
        bisect_probe(probe_fault(), sim::DivergenceScope::kFullState, stride);
    ASSERT_TRUE(report.diverged) << "stride " << stride;
    EXPECT_EQ(report.first_divergent_cycle, kInjectAt + 1)
        << "stride " << stride;
    EXPECT_NE(report.delta.find("dm[2100]"), std::string::npos)
        << report.delta;
  }
}

TEST(DivergenceBisection, CoreScopeReportsWhenTheFaultReachesACore) {
  // With DM excluded, divergence starts only when a core's load of the
  // corrupted word retires: at cycle 43, six cycles after the write.
  constexpr std::uint64_t kFirstLoad = 43;
  for (const std::uint64_t stride : kStrides) {
    const auto report =
        bisect_probe(probe_fault(), sim::DivergenceScope::kCoreState, stride);
    ASSERT_TRUE(report.diverged) << "stride " << stride;
    EXPECT_EQ(report.first_divergent_cycle, kFirstLoad) << "stride " << stride;
    EXPECT_NE(report.delta.find("core"), std::string::npos) << report.delta;
  }

  // Independently verify minimality with tick() alone: fresh platforms
  // with the same write, made when the clock reads kInjectAt as the cursor
  // makes it, agree on core state one cycle earlier and differ at the
  // reported cycle.
  sim::Platform c(sim::PlatformConfig::with_synchronizer());
  sim::Platform d(sim::PlatformConfig::with_synchronizer());
  setup_probe(c);
  setup_probe(d);
  while (c.counters().cycles < kInjectAt) {
    c.tick();
    d.tick();
  }
  d.dm_write(2100, 999);
  while (c.counters().cycles < kFirstLoad - 1) {
    c.tick();
    d.tick();
  }
  EXPECT_TRUE(sim::snapshots_equal(c.save_snapshot(), d.save_snapshot(),
                                   sim::DivergenceScope::kCoreState));
  c.tick();
  d.tick();
  EXPECT_FALSE(sim::snapshots_equal(c.save_snapshot(), d.save_snapshot(),
                                    sim::DivergenceScope::kCoreState));
}

TEST(DivergenceBisection, GeneratedProgramFastForwardModesAreBitIdentical) {
  // The region executor must never change any state, at any cycle, on any
  // control-flow shape. Each generated program's run is recorded, host
  // wake-ups included, and the bisector steps a fast-forward cursor and a
  // naive one through the recording. Cursors advance in run() slices, so
  // the fast side runs the region executor, and a failure names the exact
  // first divergent cycle.
  std::size_t wakeups = 0;
  for (const int seed : {3, 7, 11, 23}) {
    ProgramGenerator generator(static_cast<std::uint64_t>(seed));
    const auto program = compile(generator.generate());
    auto config_on = sim::PlatformConfig::with_synchronizer();
    auto config_off = config_on;
    config_off.fast_forward = false;

    sim::Platform recorded(config_on);
    recorded.load_program(program);
    sim::EventRecorder recorder;
    recorder.attach(recorded);
    preload_inputs(recorded, static_cast<std::uint64_t>(seed));
    const sim::RunResult result = run_with_wakeups(recorded, 1'000'000);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.to_string();
    const sim::EventSchedule schedule = recorder.finish(result, {});
    wakeups += static_cast<std::size_t>(std::count_if(
        schedule.events.begin(), schedule.events.end(),
        [](const sim::ExternalEvent& event) {
          return event.kind == sim::EventKind::kInterruptAll;
        }));

    sim::Platform fast(config_on);
    sim::Platform naive(config_off);
    fast.load_program(program);
    naive.load_program(program);
    sim::ReplayCursor fast_cursor(fast, schedule, {});
    sim::ReplayCursor naive_cursor(naive, schedule, {});
    const sim::DivergenceReport report = sim::find_first_divergence(
        fast_cursor, naive_cursor, result.cycles,
        sim::DivergenceScope::kFullState, /*stride=*/200);
    EXPECT_FALSE(report.diverged)
        << "seed " << seed << ": first divergent cycle "
        << report.first_divergent_cycle << "\n"
        << report.delta;
    EXPECT_GT(fast.fetch_region_cycles() + fast.burst_cycles() +
                  fast.fast_forwarded_cycles(),
              0u)
        << "seed " << seed;
  }
  EXPECT_GT(wakeups, 0u) << "no generated program slept";
}

// --- region executor vs naive loop across configuration axes ----------------

/// One point of the configuration space the region executor branches on.
/// Points with more than 8 cores run without the synchronizer (which
/// supports at most 8); the others run the auto-instrumented program on
/// the synchronized design, so sync traffic breaks the fetch regime too.
struct AxisPoint {
  unsigned cores;
  sim::ArbitrationPolicy arbitration;
  unsigned base_cpi;
  unsigned branch_taken_penalty;
  unsigned wakeup_penalty;
  bool im_fetch_broadcast;
  bool dm_read_broadcast;
};

std::string describe(const AxisPoint& p) {
  std::ostringstream out;
  out << p.cores << " cores, arbitration " << static_cast<int>(p.arbitration)
      << ", cpi " << p.base_cpi << ", branch penalty "
      << p.branch_taken_penalty << ", wakeup penalty " << p.wakeup_penalty
      << ", im broadcast " << p.im_fetch_broadcast << ", dm broadcast "
      << p.dm_read_broadcast;
  return out.str();
}

std::string describe(const core::LockstepMetrics& m) {
  std::ostringstream out;
  out << m.observed_cycles << " observed, " << m.full_lockstep_cycles
      << " full lockstep";
  return out.str();
}

TEST(RegionExecutorAxes, GeneratedProgramsMatchNaiveLoopAtEveryWindow) {
  using sim::ArbitrationPolicy;
  constexpr auto kFixed = ArbitrationPolicy::kFixedPriority;
  constexpr auto kOldest = ArbitrationPolicy::kOldestFirst;
  constexpr auto kRr = ArbitrationPolicy::kRoundRobin;
  // Every value of every axis appears at least once, and the 64-core
  // points (core-mask bits 32 and above) cover every policy and both fetch
  // broadcast settings.
  const AxisPoint points[] = {
      {3, kFixed, 1, 0, 0, true, true},     {3, kOldest, 2, 2, 2, false, true},
      {3, kRr, 3, 0, 2, true, false},       {8, kFixed, 2, 2, 0, true, false},
      {8, kOldest, 3, 0, 0, false, false},  {8, kRr, 1, 2, 2, true, true},
      {8, kOldest, 1, 0, 2, true, true},    {16, kOldest, 1, 0, 2, true, true},
      {16, kRr, 2, 2, 0, false, true},      {64, kFixed, 3, 0, 2, true, false},
      {64, kRr, 1, 0, 0, true, true},       {64, kOldest, 2, 2, 0, false, true},
  };
  // Per point: cycles its seeds ran in arbitrated and straight-line steps,
  // and the observed cycles in and out of full lockstep.
  std::vector<std::uint64_t> arbitrated(std::size(points));
  std::vector<std::uint64_t> straight(std::size(points));
  std::vector<std::uint64_t> in_lockstep(std::size(points));
  std::vector<std::uint64_t> out_of_lockstep(std::size(points));
  for (std::size_t k = 0; k < 6 * std::size(points); ++k) {
    const AxisPoint& point = points[k % std::size(points)];
    const std::uint64_t seed = 100 + k;
    ProgramGenerator generator(seed);
    assembler::Program program = compile(generator.generate());
    const bool with_sync = point.cores <= 8;
    if (with_sync) {
      auto instrumented =
          core::auto_instrument(program, core::InstrumentOptions{});
      ASSERT_TRUE(instrumented.ok()) << instrumented.error;
      program = std::move(instrumented.program);
    }
    auto config = with_sync ? sim::PlatformConfig::with_synchronizer()
                            : sim::PlatformConfig::without_synchronizer();
    config.num_cores = point.cores;
    // Cores past 8 get "private" banks past the generator's layout: the
    // shared RMW bank first, then (16-bit addresses) other cores' banks.
    // 32 banks cover the whole address space, so nothing traps, and the
    // sharing is as deterministic as the rest of the run.
    if (!with_sync) config.dm_banks = 32;
    config.arbitration = point.arbitration;
    config.base_cpi = point.base_cpi;
    config.branch_taken_penalty = point.branch_taken_penalty;
    config.wakeup_penalty = point.wakeup_penalty;
    config.im_fetch_broadcast = point.im_fetch_broadcast;
    config.dm_read_broadcast = point.dm_read_broadcast;

    auto naive_config = config;
    naive_config.fast_forward = false;
    sim::Platform fast(config);
    sim::Platform naive(naive_config);
    fast.load_program(program);
    naive.load_program(program);
    preload_inputs(fast, seed);
    preload_inputs(naive, seed);
    // Alternate rounds of seeds measure lockstep on both platforms, so every
    // point runs the executor both with and without its lockstep
    // bookkeeping, whatever the number of points.
    core::LockstepAnalyzer fast_lockstep;
    core::LockstepAnalyzer naive_lockstep;
    if ((k / std::size(points)) % 2 == 0) {
      fast_lockstep.attach(fast);
      naive_lockstep.attach(naive);
    }
    // Odd-sized windows end inside straight-line steps and idle stretches.
    sim::RunResult result;
    for (int window = 0; window < 400; ++window) {
      const std::uint64_t target = fast.counters().cycles + 613;
      result = fast.run(target);
      ASSERT_EQ(result, naive.run(target))
          << describe(point) << ", seed " << seed << ", window " << window;
      ASSERT_TRUE(fast_lockstep.metrics() == naive_lockstep.metrics())
          << describe(point) << ", seed " << seed << ", window " << window
          << "\nexecutor: " << describe(fast_lockstep.metrics())
          << "\nnaive:    " << describe(naive_lockstep.metrics());
      ASSERT_TRUE(sim::snapshots_equal(fast.save_snapshot(),
                                       naive.save_snapshot(),
                                       sim::DivergenceScope::kFullState))
          << describe(point) << ", seed " << seed << ", window " << window
          << "\n"
          << sim::diff_snapshots(fast.save_snapshot(), naive.save_snapshot());
      if (result.status == sim::RunResult::Status::kAllAsleep) {
        fast.interrupt_all();
        naive.interrupt_all();
      } else if (result.status != sim::RunResult::Status::kMaxCycles) {
        break;
      }
    }
    EXPECT_TRUE(result.ok()) << describe(point) << ": " << result.to_string();
    arbitrated[k % std::size(points)] += fast.fetch_region_cycles();
    straight[k % std::size(points)] += fast.burst_cycles();
    const core::LockstepMetrics& metrics = fast_lockstep.metrics();
    in_lockstep[k % std::size(points)] += metrics.full_lockstep_cycles;
    out_of_lockstep[k % std::size(points)] +=
        metrics.observed_cycles - metrics.full_lockstep_cycles;
  }
  // The executor served every point (straight-line steps need fetch
  // broadcast unless diverged cores happen onto disjoint banks).
  for (std::size_t k = 0; k < std::size(points); ++k) {
    EXPECT_GT(arbitrated[k], 0u) << describe(points[k]);
    if (points[k].im_fetch_broadcast)
      EXPECT_GT(straight[k], 0u) << describe(points[k]);
    EXPECT_GT(in_lockstep[k], 0u) << describe(points[k]);
    EXPECT_GT(out_of_lockstep[k], 0u) << describe(points[k]);
  }
}

TEST(DivergenceBisection, RoundRobinPointerIsModularAcrossSnapshots) {
  // The round-robin pointer is semantically modular in num_cores: a
  // snapshot whose raw rr accumulator is bumped by any multiple of
  // num_cores must continue bit-identically. Run on 3 cores — a core count
  // that does not divide 2^32, where a non-normalized accumulator would
  // drift at the unsigned wrap — over a horizon long enough to cross many
  // fast-forward batches.
  ProgramGenerator generator(17);
  const auto program = compile(generator.generate());
  auto config = sim::PlatformConfig::with_synchronizer();
  config.num_cores = 3;
  config.arbitration = sim::ArbitrationPolicy::kRoundRobin;
  sim::Platform a(config);
  sim::Platform b(config);
  a.load_program(program);
  b.load_program(program);
  preload_inputs(a, 17);
  preload_inputs(b, 17);
  (void)run_with_wakeups(a, 5'000);
  sim::Snapshot snap = a.save_snapshot();
  // Equivalent rr state: bump the raw accumulator by k * num_cores (and by
  // a 2^32-straddling amount of the same residue).
  snap.rr_pointer += 7 * config.num_cores;
  b.restore_snapshot(snap);
  const auto ra = run_with_wakeups(a, 20'000'000);
  const auto rb = run_with_wakeups(b, 20'000'000);
  EXPECT_EQ(ra, rb);
  EXPECT_TRUE(sim::snapshots_equal(a.save_snapshot(), b.save_snapshot(),
                                   sim::DivergenceScope::kFullState))
      << sim::diff_snapshots(a.save_snapshot(), b.save_snapshot());

  // Horizon past the 2^32-cycle unsigned wrap (crafted: simulating there
  // is infeasible): a snapshot restored at such a cycle count must save
  // back with its arbitration phase intact. 2^32 % 3 == 1, so a truncated
  // cycle count alone would mis-restore the pointer by one slot.
  {
    sim::Snapshot far_future = a.save_snapshot();
    const std::uint64_t wrapped = (1ull << 32) + far_future.counters.cycles;
    far_future.counters.cycles = wrapped;
    // The true modular pointer of a platform that RAN to `wrapped` cycles:
    // its residue differs from the truncated cycle count's (2^32 % 3 == 1),
    // which is exactly the case a naive cycles-derived wire value loses.
    const auto phase = static_cast<unsigned>(wrapped % config.num_cores);
    far_future.rr_pointer =
        static_cast<unsigned>(far_future.counters.cycles);  // legacy raw form
    ASSERT_NE(far_future.rr_pointer % config.num_cores, phase)
        << "test setup: residues must differ for this to prove anything";
    far_future.rr_pointer += phase + config.num_cores -
                             far_future.rr_pointer % config.num_cores;
    ASSERT_EQ(far_future.rr_pointer % config.num_cores, phase);
    sim::Platform w(config);
    w.load_program(program);
    w.restore_snapshot(far_future);
    const sim::Snapshot resaved = w.save_snapshot();
    EXPECT_EQ(resaved.counters.cycles, wrapped);
    EXPECT_EQ(resaved.rr_pointer % config.num_cores, phase)
        << "round-robin phase lost across the 2^32-cycle wrap";
  }

  // Long-horizon differential on the same non-power-of-two core count:
  // fast paths on vs the naive loop, across sleep/wake windows.
  auto config_naive = config;
  config_naive.fast_forward = false;
  sim::Platform c(config);
  sim::Platform d(config_naive);
  c.load_program(program);
  d.load_program(program);
  preload_inputs(c, 17);
  preload_inputs(d, 17);
  const auto rc = run_with_wakeups(c, 20'000'000);
  const auto rd = run_with_wakeups(d, 20'000'000);
  EXPECT_EQ(rc, rd);
  EXPECT_TRUE(sim::snapshots_equal(c.save_snapshot(), d.save_snapshot(),
                                   sim::DivergenceScope::kFullState))
      << sim::diff_snapshots(c.save_snapshot(), d.save_snapshot());
}

}  // namespace
}  // namespace ulpsync
