// Deterministic snapshot subsystem tests.
//
// The contract under test (sim/snapshot.h): save at cycle C, restore into a
// freshly constructed platform, run N more cycles — and *everything* is
// bit-identical to an uninterrupted C+N run: counters, synchronizer
// statistics, trace timelines, VCD output, final snapshot bytes; with and
// without idle fast-forward; including snapshots taken mid-RMW. Golden
// snapshot images committed under tests/golden/ additionally pin the wire
// format and the simulated state of every builtin workload at a fixed
// cycle; regenerate them with `snapshot_tool capture` (see
// tests/golden/README.md) after an intentional simulator change.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "sim/trace.h"
#include "sim/vcd.h"

namespace ulpsync {
namespace {

using scenario::Engine;
using scenario::EngineOptions;
using scenario::Registry;
using scenario::RunSpec;

constexpr std::uint64_t kGoldenCycle = 600;
constexpr unsigned kGoldenSamples = 48;

/// Builds the same platform `snapshot_tool capture` and `Engine::run_one`
/// build for a builtin workload on the synchronized design.
struct WorkloadRig {
  std::shared_ptr<const scenario::Workload> workload;
  sim::Platform platform;

  WorkloadRig(const std::string& name, bool fast_forward)
      : workload(Registry::builtins().make(name, make_params())),
        platform(make_config(*workload, fast_forward)) {
    platform.load_program(workload->program(/*instrumented=*/true));
    workload->load_inputs(platform);
  }

  static scenario::WorkloadParams make_params() {
    scenario::WorkloadParams params;
    params.samples = kGoldenSamples;
    return params;
  }
  static sim::PlatformConfig make_config(const scenario::Workload& workload,
                                         bool fast_forward) {
    sim::PlatformConfig config = workload.base_config(/*with_synchronizer=*/true);
    config.fast_forward = fast_forward;
    return config;
  }
};

const char* const kBuiltins[] = {"mrpfltr", "sqrt32",    "mrpdln", "sqrt32.auto",
                                 "clip8",   "bandcount", "streaming"};

std::string param_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (auto& c : name)
    if (c == '.') c = '_';
  return name;
}

// --- save -> restore -> run == straight run ---------------------------------

class SnapshotEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotEquivalence, RestoredRunMatchesStraightRunBothFastForwardModes) {
  for (const bool fast_forward : {true, false}) {
    SCOPED_TRACE(fast_forward ? "fast-forward on" : "fast-forward off");
    const std::uint64_t continue_to = kGoldenCycle + 900;

    // Straight run to C+N.
    WorkloadRig straight(GetParam(), fast_forward);
    (void)straight.platform.run(continue_to);
    const auto straight_bytes = straight.platform.save_snapshot().serialize();

    // Interrupted run: save at C, restore into a *fresh* platform, continue.
    WorkloadRig first(GetParam(), fast_forward);
    (void)first.platform.run(kGoldenCycle);
    const sim::Snapshot at_c = first.platform.save_snapshot();

    WorkloadRig resumed(GetParam(), fast_forward);
    resumed.platform.restore_snapshot(at_c);
    (void)resumed.platform.run(continue_to);
    const auto resumed_bytes = resumed.platform.save_snapshot().serialize();

    EXPECT_EQ(straight_bytes, resumed_bytes)
        << GetParam() << ": "
        << sim::diff_snapshots(sim::Snapshot::deserialize(straight_bytes),
                               sim::Snapshot::deserialize(resumed_bytes));
  }
}

TEST_P(SnapshotEquivalence, TraceAndVcdOfResumedWindowByteIdentical) {
  // Observers attached at cycle C must see identical cycles whether the
  // pre-C prefix was simulated in this process or restored from a
  // snapshot. (An attached observer suppresses fast-forward, so this holds
  // in both configured modes; run one, the stronger ff-on config.)
  const std::uint64_t continue_to = kGoldenCycle + 400;

  auto capture_window = [&](bool restore) {
    WorkloadRig rig(GetParam(), /*fast_forward=*/true);
    if (restore) {
      WorkloadRig warmup(GetParam(), /*fast_forward=*/true);
      (void)warmup.platform.run(kGoldenCycle);
      rig.platform.restore_snapshot(warmup.platform.save_snapshot());
    } else {
      (void)rig.platform.run(kGoldenCycle);
    }
    sim::TimelineTracer tracer;
    tracer.attach(rig.platform);
    (void)rig.platform.run(continue_to);
    const std::string timeline = tracer.timeline(500);

    std::ostringstream vcd_out;
    sim::VcdWriter vcd(vcd_out);
    vcd.attach(rig.platform);  // fresh observer for a second leg
    (void)rig.platform.run(continue_to + 300);
    vcd.finish();
    return std::pair<std::string, std::string>(timeline, vcd_out.str());
  };

  const auto [trace_straight, vcd_straight] = capture_window(false);
  const auto [trace_resumed, vcd_resumed] = capture_window(true);
  EXPECT_EQ(trace_straight, trace_resumed) << GetParam();
  EXPECT_EQ(vcd_straight, vcd_resumed) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Builtins, SnapshotEquivalence,
                         ::testing::ValuesIn(kBuiltins), param_name);

// --- golden snapshots --------------------------------------------------------

std::map<std::string, std::uint64_t> load_golden_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  std::ifstream file(std::string(ULPSYNC_GOLDEN_DIR) + "/hashes.txt");
  EXPECT_TRUE(file.is_open()) << "missing tests/golden/hashes.txt";
  std::string hash_hex, filename;
  while (file >> hash_hex >> filename) {
    const std::size_t slash = filename.find_last_of('/');
    if (slash != std::string::npos) filename = filename.substr(slash + 1);
    hashes[filename] = std::stoull(hash_hex, nullptr, 16);
  }
  return hashes;
}

class GoldenSnapshots : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSnapshots, CommittedImageAndHashAreStable) {
  const std::string name = GetParam();
  const std::string path =
      std::string(ULPSYNC_GOLDEN_DIR) + "/" + name + ".snap";

  // A freshly captured snapshot must byte-match the committed image (and
  // therefore its committed content hash): the wire format and the
  // simulation are both pinned.
  WorkloadRig rig(name, /*fast_forward=*/true);
  (void)rig.platform.run(kGoldenCycle);
  const sim::Snapshot fresh = rig.platform.save_snapshot();

  const sim::Snapshot committed = sim::read_snapshot_file(path);
  EXPECT_EQ(fresh.serialize(), committed.serialize())
      << name << " drifted from its golden snapshot; if the simulator "
      << "change is intentional, regenerate with: snapshot_tool capture "
      << name << " --cycle 600 --samples 48 (see tests/golden/README.md)\n"
      << sim::diff_snapshots(fresh, committed);

  const auto hashes = load_golden_hashes();
  const auto entry = hashes.find(name + ".snap");
  ASSERT_NE(entry, hashes.end()) << "no hash recorded for " << name;
  EXPECT_EQ(committed.content_hash(), entry->second) << name;
}

TEST_P(GoldenSnapshots, CommittedImageResumesBitExact) {
  const std::string name = GetParam();
  const sim::Snapshot committed = sim::read_snapshot_file(
      std::string(ULPSYNC_GOLDEN_DIR) + "/" + name + ".snap");

  WorkloadRig straight(name, /*fast_forward=*/true);
  (void)straight.platform.run(kGoldenCycle + 500);

  WorkloadRig resumed(name, /*fast_forward=*/true);
  resumed.platform.restore_snapshot(committed);
  (void)resumed.platform.run(kGoldenCycle + 500);

  EXPECT_EQ(straight.platform.save_snapshot().serialize(),
            resumed.platform.save_snapshot().serialize())
      << name;
}

INSTANTIATE_TEST_SUITE_P(Builtins, GoldenSnapshots,
                         ::testing::ValuesIn(kBuiltins), param_name);

// --- awkward capture points --------------------------------------------------

assembler::Program compile(std::string_view source) {
  auto result = assembler::assemble(source);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

constexpr std::string_view kBarrierKernel = R"(
    movi r1, 0
  loop:
    addi r1, r1, 1
    sinc #0
    sdec #0
    cmpi r1, 30
    blt  loop
    halt
)";

TEST(Snapshot, MidRmwCaptureResumesBitExact) {
  // Drive tick-by-tick to a cycle where the synchronizer RMW is in flight
  // (a core in kSyncBusy), snapshot there, and verify the restored
  // continuation matches the uninterrupted one.
  sim::Platform reference(sim::PlatformConfig::with_synchronizer());
  reference.load_program(compile(kBarrierKernel));

  bool found_busy = false;
  for (unsigned cycle = 0; cycle < 2000 && !found_busy; ++cycle) {
    reference.tick();
    for (unsigned core = 0; core < reference.config().num_cores; ++core)
      found_busy |= reference.core_status(core) == sim::CoreStatus::kSyncBusy;
  }
  ASSERT_TRUE(found_busy) << "barrier kernel never entered an RMW";

  // The capture really is mid-RMW: the request accepted during the last
  // tick stays in flight until the next cycle's write phase.
  const sim::Snapshot mid_rmw = reference.save_snapshot();
  EXPECT_TRUE(mid_rmw.sync.inflight_active);

  sim::Platform resumed(sim::PlatformConfig::with_synchronizer());
  resumed.load_program(compile(kBarrierKernel));
  resumed.restore_snapshot(mid_rmw);

  for (unsigned step = 0; step < 500; ++step) {
    reference.tick();
    resumed.tick();
  }
  EXPECT_EQ(reference.save_snapshot().serialize(),
            resumed.save_snapshot().serialize());
}

TEST(Snapshot, RestoreRejectsMismatchedPlatform) {
  sim::Platform eight(sim::PlatformConfig::with_synchronizer());
  eight.load_program(compile(kBarrierKernel));
  const sim::Snapshot snap = eight.save_snapshot();

  // Different core count.
  sim::PlatformConfig four_cores = sim::PlatformConfig::with_synchronizer();
  four_cores.num_cores = 4;
  sim::Platform four(four_cores);
  four.load_program(compile(kBarrierKernel));
  EXPECT_THROW(four.restore_snapshot(snap), std::invalid_argument);

  // Same config, different program.
  sim::Platform other(sim::PlatformConfig::with_synchronizer());
  other.load_program(compile("movi r1, 7\nhalt\n"));
  EXPECT_THROW(other.restore_snapshot(snap), std::invalid_argument);

  // The host-side fast-forward knob is explicitly NOT part of the identity.
  sim::PlatformConfig no_ff = sim::PlatformConfig::with_synchronizer();
  no_ff.fast_forward = false;
  sim::Platform naive(no_ff);
  naive.load_program(compile(kBarrierKernel));
  EXPECT_NO_THROW(naive.restore_snapshot(snap));
}

TEST(Snapshot, RestoreRejectsPolicyGroupsNamingAbsentCores) {
  // A group's masks are walked as core indices, so an image whose group
  // names a core the platform lacks, or an unserved core outside the
  // group, is refused instead of indexing past the cores.
  sim::PlatformConfig config = sim::PlatformConfig::with_synchronizer();
  config.num_cores = 4;
  sim::Platform platform(config);
  platform.load_program(compile(kBarrierKernel));
  const sim::Snapshot clean = platform.save_snapshot();
  auto with_group = [&](std::uint64_t members, std::uint64_t unserved) {
    sim::Snapshot snap = clean;
    snap.policy_groups[0] = {true, 0, members, unserved};
    snap.active_policy_groups = 1;
    return sim::Snapshot::deserialize(snap.serialize());
  };
  EXPECT_NO_THROW(platform.restore_snapshot(with_group(0b0011, 0b0001)));
  EXPECT_THROW(platform.restore_snapshot(with_group(0b10'0001, 0b00'0001)),
               std::invalid_argument);
  EXPECT_THROW(platform.restore_snapshot(with_group(0b0011, 0b0100)),
               std::invalid_argument);
}

TEST(Snapshot, FileRoundTrip) {
  WorkloadRig rig("sqrt32", /*fast_forward=*/true);
  (void)rig.platform.run(kGoldenCycle);
  sim::Snapshot snap = rig.platform.save_snapshot();
  snap.host_words = {0x1234, 0xdeadbeef};  // harness payload survives I/O

  const std::string path = ::testing::TempDir() + "/roundtrip.snap";
  sim::write_snapshot_file(path, snap);
  const sim::Snapshot loaded = sim::read_snapshot_file(path);
  EXPECT_EQ(snap, loaded);
  EXPECT_EQ(snap.content_hash(), loaded.content_hash());
  std::remove(path.c_str());
}

TEST(Snapshot, EqualityScopesIgnoreExactlyTheirExcludedFields) {
  // snapshots_equal compares whole projections: the full scope drops only
  // the host-only fields and the image fingerprint, the core scope also
  // drops configuration, DM and host words. Every other field counts.
  WorkloadRig rig("sqrt32", /*fast_forward=*/true);
  (void)rig.platform.run(kGoldenCycle);
  const sim::Snapshot base = rig.platform.save_snapshot();
  ASSERT_FALSE(base.dm_runs.empty());
  ASSERT_GE(base.cores.size(), 2u);
  ASSERT_FALSE(base.policy_groups.empty());

  struct Edit {
    const char* field;
    void (*apply)(sim::Snapshot&);
    bool full_sees;
    bool core_sees;
  };
  const Edit edits[] = {
      {"im_fingerprint", [](sim::Snapshot& s) { s.im_fingerprint ^= 1; },
       false, false},
      {"config.fast_forward",
       [](sim::Snapshot& s) { s.config.fast_forward = !s.config.fast_forward; },
       false, false},
      {"fast_forwarded_cycles",
       [](sim::Snapshot& s) { s.fast_forwarded_cycles += 5; }, false, false},
      {"config.base_cpi", [](sim::Snapshot& s) { s.config.base_cpi += 1; },
       true, false},
      {"a DM word",
       [](sim::Snapshot& s) { s.dm_runs.front().words.front() ^= 1; }, true,
       false},
      {"host_words", [](sim::Snapshot& s) { s.host_words.push_back(7); },
       true, false},
      {"one register", [](sim::Snapshot& s) { s.cores[1].arch.regs[3] ^= 1; },
       true, true},
      {"one counter",
       [](sim::Snapshot& s) { s.counters.per_core_retired[1] += 1; },
       true, true},
      {"stall_age", [](sim::Snapshot& s) { s.cores[0].stall_age += 1; }, true,
       true},
      {"policy group",
       [](sim::Snapshot& s) { s.policy_groups[0].pc += 1; }, true, true},
      {"synchronizer", [](sim::Snapshot& s) { s.sync.inflight_addr += 1; },
       true, true},
      {"pending stop",
       [](sim::Snapshot& s) { s.has_pending_stop = !s.has_pending_stop; },
       true, true},
      {"was_lockstep",
       [](sim::Snapshot& s) { s.was_lockstep = !s.was_lockstep; }, true, true},
      {"rr_pointer", [](sim::Snapshot& s) { s.rr_pointer += 1; }, true, true},
  };
  for (const Edit& edit : edits) {
    sim::Snapshot edited = base;
    edit.apply(edited);
    EXPECT_EQ(sim::snapshots_equal(base, edited,
                                   sim::DivergenceScope::kFullState),
              !edit.full_sees)
        << edit.field;
    EXPECT_EQ(sim::snapshots_equal(base, edited,
                                   sim::DivergenceScope::kCoreState),
              !edit.core_sees)
        << edit.field;
  }
}

// --- shared runs of budget fan-outs ------------------------------------------

/// Each spec's own cold run (`Engine::run_one`), as one CSV.
std::string cold_csv(const Engine& engine, const std::vector<RunSpec>& specs) {
  std::vector<scenario::RunRecord> records;
  for (const RunSpec& spec : specs) records.push_back(engine.run_one(spec));
  return scenario::to_csv(records);
}

/// A spec of `workload` at `budget` cycles on `design`.
RunSpec budget_spec(const std::string& workload,
                    const scenario::DesignVariant& design,
                    std::uint64_t budget) {
  RunSpec spec;
  spec.workload = workload;
  spec.params.samples = kGoldenSamples;
  spec.design = design;
  spec.max_cycles = budget;
  return spec;
}

/// A budget fan-out around `natural` (the spec's uncapped run length), in
/// unsorted order: one cycle, a third twice under two energy requests, a
/// half twice, one short of natural, natural, and past it.
std::vector<RunSpec> budget_fanout(const std::string& workload,
                                   const scenario::DesignVariant& design,
                                   std::uint64_t natural) {
  std::vector<RunSpec> specs;
  for (const std::uint64_t budget :
       {natural / 2, natural + 1000, std::uint64_t{1}, natural / 3, natural,
        natural / 2, natural - 1, natural / 3}) {
    specs.push_back(budget_spec(workload, design, budget));
  }
  specs[3].energy = scenario::EnergyRequest{
      scenario::EnergyRequest::Params::kAuto, 5.0, 0.0};
  specs[7].energy = scenario::EnergyRequest{
      scenario::EnergyRequest::Params::kAuto, 80.0, 0.0};
  return specs;
}

TEST(SharedRuns, BuiltinFanOutsEqualTheirColdRuns) {
  // The builtins on both designs, fanned out over budgets that stop
  // before, at and after the run's natural end, in one sweep: each
  // non-windowed fan-out is one shared run, each windowed member runs
  // alone, and every record equals the member's own cold run.
  const Engine engine(Registry::builtins());
  std::vector<RunSpec> specs;
  std::size_t windowed_fanouts = 0;
  for (const char* name :
       {"mrpfltr", "sqrt32", "mrpdln", "mrpfltr.auto", "sqrt32.auto",
        "mrpdln.auto", "clip8", "bandcount", "bandcount.auto", "streaming",
        "sleepgen"}) {
    for (const auto& design : {scenario::DesignVariant::baseline(),
                               scenario::DesignVariant::synchronized()}) {
      const RunSpec uncapped = budget_spec(name, design, 500'000'000);
      const scenario::RunRecord natural = engine.run_one(uncapped);
      ASSERT_NE(natural.status, "error")
          << name << ": " << natural.verify_error;
      ASSERT_GT(natural.cycles(), 3u) << name;
      const auto fanout = budget_fanout(name, design, natural.cycles());
      specs.insert(specs.end(), fanout.begin(), fanout.end());
      const auto workload = Registry::builtins().make(name, uncapped.params);
      if (workload->windowed_drive() != nullptr) ++windowed_fanouts;
    }
  }
  ASSERT_EQ(windowed_fanouts, 4u);  // streaming and sleepgen, both designs

  // One group per non-windowed fan-out; windowed members stay alone.
  const std::size_t fanouts = specs.size() / 8;
  const auto groups = engine.run_groups(specs);
  EXPECT_EQ(groups.size(), (fanouts - windowed_fanouts) + windowed_fanouts * 8);
  for (const auto& group : groups) {
    EXPECT_TRUE(group.size() == 1 || group.size() == 8) << group.size();
  }

  const std::string cold = cold_csv(engine, specs);
  EXPECT_EQ(scenario::to_csv(engine.run(specs)), cold);
  const Engine parallel(Registry::builtins(), {.jobs = 4});
  EXPECT_EQ(scenario::to_csv(parallel.run(specs)), cold);
}

/// A builtin that counts its `load_inputs` calls: one per platform run.
class LoadCounting final : public scenario::Workload {
 public:
  LoadCounting(std::shared_ptr<const scenario::Workload> inner,
               std::atomic<unsigned>* loads)
      : inner_(std::move(inner)), loads_(loads) {}

  std::string_view name() const override { return inner_->name(); }
  unsigned num_cores() const override { return inner_->num_cores(); }
  const assembler::Program& program(bool instrumented) const override {
    return inner_->program(instrumented);
  }
  void load_inputs(sim::Platform& platform) const override {
    loads_->fetch_add(1);
    inner_->load_inputs(platform);
  }
  std::string verify(const sim::Platform& platform) const override {
    return inner_->verify(platform);
  }
  sim::PlatformConfig base_config(bool with_synchronizer) const override {
    return inner_->base_config(with_synchronizer);
  }
  const scenario::WindowedDrive* windowed_drive() const override {
    return inner_->windowed_drive();
  }
  std::vector<std::pair<std::string, std::string>> report(
      const sim::Platform& platform) const override {
    return inner_->report(platform);
  }

 private:
  std::shared_ptr<const scenario::Workload> inner_;
  std::atomic<unsigned>* loads_;
};

TEST(SharedRuns, OneFanOutLoadsItsPlatformOnce) {
  std::atomic<unsigned> loads{0};
  Registry registry;
  registry.add("counted", [&loads](const scenario::WorkloadParams& params) {
    return std::make_shared<LoadCounting>(
        Registry::builtins().make("mrpfltr", params), &loads);
  });
  const Engine engine(registry);
  const auto design = scenario::DesignVariant::synchronized();
  std::vector<RunSpec> specs;
  for (const std::uint64_t budget : {9'000u, 3'000u, 500'000'000u, 6'000u}) {
    specs.push_back(budget_spec("counted", design, budget));
  }
  const std::string cold = cold_csv(engine, specs);
  ASSERT_EQ(loads.load(), specs.size());

  loads = 0;
  EXPECT_EQ(scenario::to_csv(engine.run(specs)), cold);
  EXPECT_EQ(loads.load(), 1u);

  // A recording member keeps its own cold run; the rest still share one.
  specs[1].record_events_to = ::testing::TempDir() + "/shared_runs.evt";
  loads = 0;
  EXPECT_EQ(scenario::to_csv(engine.run(specs)), cold);
  EXPECT_EQ(loads.load(), 2u);
  std::remove(specs[1].record_events_to.c_str());
}

TEST(SharedRuns, GroupRingLivesUnderTheLowestMemberAndResumesBitExact) {
  // A fan-out whose first member has the largest budget: its first pass
  // stops every member at 2/3 of its budget, as if killed; the full pass
  // restores the newest entry at or below the smallest budget.
  const Engine plain(Registry::builtins());
  const auto design = scenario::DesignVariant::synchronized();
  const std::uint64_t natural =
      plain.run_one(budget_spec("mrpfltr", design, 500'000'000)).cycles();
  std::vector<RunSpec> specs;
  for (const std::uint64_t budget :
       {natural + 1000, natural / 4, natural * 3 / 4, natural / 2}) {
    specs.push_back(budget_spec("mrpfltr", design, budget));
  }
  std::vector<RunSpec> truncated = specs;
  for (RunSpec& spec : truncated) spec.max_cycles = spec.max_cycles * 2 / 3;

  const std::string dir = ::testing::TempDir() + "/shared_ring";
  std::filesystem::remove_all(dir);
  EngineOptions options;
  // Stride natural/10 and room for every entry: the first pass leaves
  // entries from natural/10 up past the smallest full budget.
  options.checkpoint_ring = {.dir = dir, .stride = natural / 10, .keep = 16};
  const Engine ringed(Registry::builtins(), options);

  EXPECT_EQ(scenario::to_csv(ringed.run(truncated)),
            cold_csv(plain, truncated));
  EXPECT_TRUE(
      std::filesystem::exists(scenario::ring_run_dir(dir, 0) + "/MANIFEST"));
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_FALSE(std::filesystem::exists(scenario::ring_run_dir(dir, i))) << i;
  }
  const auto beyond = scenario::load_latest_ring_entry(
      scenario::ring_run_dir(dir, 0), scenario::ring_identity(specs[0]),
      natural);
  ASSERT_TRUE(beyond.has_value());
  EXPECT_GT(beyond->cycle, natural / 4);  // past the smallest full budget

  EXPECT_EQ(scenario::to_csv(ringed.run(specs)), cold_csv(plain, specs));
  std::filesystem::remove_all(dir);
}

TEST(SharedRuns, UnknownWorkloadFanOutGivesAnErrorRecordPerMember) {
  const Engine engine(Registry::builtins());
  std::vector<RunSpec> specs;
  for (const std::uint64_t budget : {2'000u, 1'000u, 3'000u}) {
    specs.push_back(budget_spec("no-such-kernel",
                                scenario::DesignVariant::baseline(), budget));
  }
  const std::string cold = cold_csv(engine, specs);
  EXPECT_EQ(scenario::to_csv(engine.run(specs)), cold);
  // Run as one group, the failure still reaches every member.
  const std::vector<std::size_t> members = {0, 1, 2};
  const auto records = engine.run_shared(specs, members, 0);
  EXPECT_EQ(scenario::to_csv(records), cold);
  for (const scenario::RunRecord& record : records) {
    EXPECT_EQ(record.status, "error");
    EXPECT_FALSE(record.verify_error.empty());
  }
}

// --- wide platforms (beyond the synchronizer's 8-core ceiling) --------------

TEST(WidePlatformSnapshots, SixtyFourCoreRoundTripIsBitExact) {
  // 64-core platforms use the extended wire encoding (64-bit policy masks,
  // one per-core counter entry per core): serialize → deserialize →
  // serialize must be a fixed point, and restore → run must match a
  // straight run bit-exactly.
  scenario::WorkloadParams params;
  params.samples = 128;
  params.num_channels = 64;
  const auto workload = Registry::builtins().make("sleepgen", params);
  sim::PlatformConfig config =
      workload->base_config(/*with_synchronizer=*/false);
  config.features = sim::SyncFeatures{false, true, true};

  sim::Platform platform(config);
  platform.load_program(workload->program(false));
  (void)platform.run(400);
  const sim::Snapshot snap = platform.save_snapshot();
  const auto bytes = snap.serialize();
  const sim::Snapshot reparsed = sim::Snapshot::deserialize(bytes);
  EXPECT_EQ(reparsed, snap);
  EXPECT_EQ(reparsed.serialize(), bytes);
  EXPECT_EQ(reparsed.content_hash(), snap.content_hash());

  sim::Platform resumed(config);
  resumed.load_program(workload->program(false));
  resumed.restore_snapshot(reparsed);
  // Wake both (the kernel parks in sleep) and run a full uninstrumented
  // window on the 64-core crossbars.
  platform.interrupt_all();
  resumed.interrupt_all();
  (void)platform.run(20'000);
  (void)resumed.run(20'000);
  EXPECT_EQ(platform.save_snapshot().serialize(),
            resumed.save_snapshot().serialize());
}

TEST(WidePlatformSnapshots, LegacyPerCoreLayoutPreservedBelowEightCores) {
  // Platforms of up to 8 cores keep the historical wire layout (8 per-core
  // entries, 16-bit masks) — the committed goldens depend on it. A 2-core
  // snapshot must round-trip and carry exactly 8 per-core entries' worth
  // of counter payload, which round-tripping implicitly checks.
  auto config = sim::PlatformConfig::with_synchronizer();
  config.num_cores = 2;
  sim::Platform platform(config);
  const auto program = assembler::assemble("  movi r1, 5\n  halt\n");
  ASSERT_TRUE(program.ok());
  platform.load_program(program.program);
  (void)platform.run(50);
  const sim::Snapshot snap = platform.save_snapshot();
  const auto bytes = snap.serialize();
  const sim::Snapshot reparsed = sim::Snapshot::deserialize(bytes);
  EXPECT_EQ(reparsed, snap);
  EXPECT_EQ(reparsed.serialize(), bytes);
}

}  // namespace
}  // namespace ulpsync
