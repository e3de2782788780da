// Cross-cutting property suites:
//  * ALU semantics differentially tested against a plain-C++ int16 model
//    over random operand sweeps (parameterized per opcode);
//  * assembler robustness fuzzing (random token soup must produce
//    diagnostics, never crashes, and never a silently wrong program);
//  * platform event-counter conservation laws on random workloads;
//  * snapshot serialization properties: round-trip identity at arbitrary
//    capture cycles, rejection of corrupted/truncated images (never a
//    crash, never a silently wrong parse), determinism of warm-state
//    capture under host concurrency, and host RNG stream checkpointing;
//  * event-schedule (.evt) wire-format properties mirroring the snapshot
//    suite: round-trip identity, truncation rejection at every prefix,
//    corruption fuzz without crashes, and trailing-hash verification —
//    for both the raw sim::EventSchedule image and the scenario
//    RecordedRun envelope that wraps it;
//  * spool parser fuzzing: the manifest of either kind, the bundle and
//    range claim payloads, the transport status reply, and the sealed-image
//    codec, each truncated at every length and randomly bit-flipped — every
//    input parses or throws, never crashes;
//  * the same fuzzing over the record CSV/JSON parsers (parse or
//    std::invalid_argument), the planner's cost lines (refused, or a
//    finite non-negative wall time) and a checkpoint ring's manifest and
//    newest entry (nothing, or an entry the ring wrote).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/spool.h"
#include "scenario/transport.h"
#include "sim/event_schedule.h"
#include "sim/executor.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/wire.h"

namespace ulpsync {
namespace {

// --- ALU differential sweep -------------------------------------------------

using AluRef = std::uint16_t (*)(std::uint16_t, std::uint16_t);

struct AluCase {
  const char* name;
  isa::Opcode op;
  AluRef reference;
};

std::uint16_t ref_add(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a + b);
}
std::uint16_t ref_sub(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a - b);
}
std::uint16_t ref_and(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a & b);
}
std::uint16_t ref_or(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a | b);
}
std::uint16_t ref_xor(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a ^ b);
}
std::uint16_t ref_sll(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a << (b & 15));
}
std::uint16_t ref_srl(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a >> (b & 15));
}
std::uint16_t ref_sra(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(static_cast<std::int16_t>(a) >> (b & 15));
}
std::uint16_t ref_mul(std::uint16_t a, std::uint16_t b) {
  const std::int32_t p = static_cast<std::int16_t>(a) * static_cast<std::int16_t>(b);
  return static_cast<std::uint16_t>(p & 0xFFFF);
}
std::uint16_t ref_mulh(std::uint16_t a, std::uint16_t b) {
  const std::int32_t p = static_cast<std::int16_t>(a) * static_cast<std::int16_t>(b);
  return static_cast<std::uint16_t>(static_cast<std::uint32_t>(p) >> 16);
}

class AluDifferential : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluDifferential, MatchesReferenceOverRandomOperands) {
  const AluCase& alu = GetParam();
  util::Rng rng(0xA11Bu ^ static_cast<std::uint64_t>(alu.op));
  for (int trial = 0; trial < 4000; ++trial) {
    const auto a = static_cast<std::uint16_t>(rng.next_below(0x10000));
    const auto b = static_cast<std::uint16_t>(rng.next_below(0x10000));
    sim::CoreArchState state;
    state.set_reg(1, a);
    state.set_reg(2, b);
    isa::Instruction instr{alu.op, 3, 1, 2, 0};
    (void)sim::execute(state, instr);
    EXPECT_EQ(state.reg(3), alu.reference(a, b))
        << alu.name << "(" << a << ", " << b << ")";
  }
}

TEST_P(AluDifferential, EdgeOperandMatrix) {
  const AluCase& alu = GetParam();
  constexpr std::uint16_t kEdges[] = {0, 1, 2, 0x7FFF, 0x8000, 0x8001,
                                      0xFFFE, 0xFFFF, 15, 16, 17};
  for (std::uint16_t a : kEdges) {
    for (std::uint16_t b : kEdges) {
      sim::CoreArchState state;
      state.set_reg(1, a);
      state.set_reg(2, b);
      isa::Instruction instr{alu.op, 3, 1, 2, 0};
      (void)sim::execute(state, instr);
      EXPECT_EQ(state.reg(3), alu.reference(a, b))
          << alu.name << "(" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, AluDifferential,
    ::testing::Values(AluCase{"add", isa::Opcode::kAdd, ref_add},
                      AluCase{"sub", isa::Opcode::kSub, ref_sub},
                      AluCase{"and", isa::Opcode::kAnd, ref_and},
                      AluCase{"or", isa::Opcode::kOr, ref_or},
                      AluCase{"xor", isa::Opcode::kXor, ref_xor},
                      AluCase{"sll", isa::Opcode::kSll, ref_sll},
                      AluCase{"srl", isa::Opcode::kSrl, ref_srl},
                      AluCase{"sra", isa::Opcode::kSra, ref_sra},
                      AluCase{"mul", isa::Opcode::kMul, ref_mul},
                      AluCase{"mulh", isa::Opcode::kMulh, ref_mulh}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// --- assembler fuzzing -------------------------------------------------------

TEST(AssemblerFuzz, RandomTokenSoupNeverCrashes) {
  util::Rng rng(0xF022);
  const char* fragments[] = {"add",   "r1",    "r16",  ",",   "[",    "]",
                             "#",     "0x",    "12",   "-",   "+",    ":",
                             "label", ".equ",  ".org", "ld",  "st",   "beq",
                             "movi",  "0b12",  "r",    "!!",  "65536"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string source;
    const unsigned lines = 1 + static_cast<unsigned>(rng.next_below(8));
    for (unsigned l = 0; l < lines; ++l) {
      const unsigned tokens = static_cast<unsigned>(rng.next_below(7));
      for (unsigned t = 0; t < tokens; ++t) {
        source += fragments[rng.next_below(std::size(fragments))];
        source += rng.next_below(3) == 0 ? "" : " ";
      }
      source += '\n';
    }
    const auto result = assembler::assemble(source);
    // Either it assembles or it produces diagnostics — both are fine;
    // the property is "no crash, and ok() implies a consistent program".
    if (result.ok()) {
      EXPECT_EQ(result.program.code.size(), result.program.image.size());
    } else {
      EXPECT_FALSE(result.errors.empty());
    }
  }
}

TEST(AssemblerFuzz, RandomValidProgramsRoundTripThroughEncoding) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 200; ++trial) {
    std::string source;
    const unsigned count = 1 + static_cast<unsigned>(rng.next_below(30));
    for (unsigned i = 0; i < count; ++i) {
      switch (rng.next_below(5)) {
        case 0:
          source += "add r" + std::to_string(rng.next_below(16)) + ", r" +
                    std::to_string(rng.next_below(16)) + ", r" +
                    std::to_string(rng.next_below(16)) + "\n";
          break;
        case 1:
          source += "movi r" + std::to_string(rng.next_below(16)) + ", " +
                    std::to_string(rng.next_below(0x10000)) + "\n";
          break;
        case 2:
          source += "ld r" + std::to_string(rng.next_below(16)) + ", [r" +
                    std::to_string(rng.next_below(16)) + "+" +
                    std::to_string(rng.next_below(4096)) + "]\n";
          break;
        case 3:
          source += "cmpi r" + std::to_string(rng.next_below(16)) + ", " +
                    std::to_string(rng.next_in_range(-4096, 4095)) + "\n";
          break;
        default:
          source += "nop\n";
      }
    }
    source += "halt\n";
    const auto result = assembler::assemble(source);
    ASSERT_TRUE(result.ok()) << result.error_text() << source;
    for (std::size_t i = 0; i < result.program.code.size(); ++i) {
      EXPECT_EQ(*isa::decode(result.program.image[i]), result.program.code[i]);
    }
  }
}

// --- counter conservation laws ----------------------------------------------

TEST(CounterConservation, FetchesDeliveredEqualRetiredOps) {
  // Every delivered fetch retires exactly once (no speculation): on any
  // completed run, retired ops == delivered fetches.
  for (const bool with_sync : {false, true}) {
    auto config = with_sync ? sim::PlatformConfig::with_synchronizer()
                            : sim::PlatformConfig::without_synchronizer();
    sim::Platform platform(config);
    auto program = assembler::assemble(R"(
        csrr r1, #0
        movi r2, 30
    loop:
        andi r3, r2, 3
        cmp  r3, r1
        bne  skip
        addi r4, r4, 1
    skip:
        addi r2, r2, -1
        cmpi r2, 0
        bne  loop
        halt
    )");
    ASSERT_TRUE(program.ok());
    platform.load_program(program.program);
    ASSERT_TRUE(platform.run(100'000).ok());
    const auto& counters = platform.counters();
    EXPECT_EQ(counters.im_fetches_delivered, counters.retired_ops);
    // Broadcast accounting: delivered >= accesses, equality iff no merge.
    EXPECT_GE(counters.im_fetches_delivered, counters.im_bank_accesses);
    // Active cycles can never exceed cores x cycles.
    EXPECT_LE(counters.core_active_cycles,
              counters.cycles * platform.config().num_cores);
  }
}

TEST(CounterConservation, DmGrantsMatchExecutedMemOps) {
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  auto program = assembler::assemble(R"(
      csrr r1, #0
      addi r4, r1, 2
      movi r5, 11
      sll  r3, r4, r5
      movi r2, 16
  loop:
      ldx  r6, [r3+r2]
      addi r6, r6, 1
      stx  r6, [r3+r2]
      addi r2, r2, -1
      cmpi r2, 0
      bne  loop
      halt
  )");
  ASSERT_TRUE(program.ok());
  platform.load_program(program.program);
  ASSERT_TRUE(platform.run(100'000).ok());
  // 16 iterations x (1 load + 1 store) x 8 cores.
  EXPECT_EQ(platform.counters().dm_requests_granted, 16u * 2 * 8);
}

// --- snapshot serialization properties --------------------------------------

constexpr std::string_view kSnapshotPropertyKernel = R"(
    csrr r1, #0
    addi r4, r1, 2
    movi r5, 11
    sll  r3, r4, r5
    movi r2, 25
loop:
    ldx  r6, [r3+r2]
    addi r6, r6, 3
    stx  r6, [r3+r2]
    sinc #0
    sdec #0
    addi r2, r2, -1
    cmpi r2, 0
    bne  loop
    halt
)";

sim::Snapshot capture_at(std::uint64_t cycle) {
  sim::Platform platform(sim::PlatformConfig::with_synchronizer());
  const auto program = assembler::assemble(std::string(kSnapshotPropertyKernel));
  EXPECT_TRUE(program.ok()) << program.error_text();
  platform.load_program(program.program);
  while (platform.counters().cycles < cycle) platform.tick();
  return platform.save_snapshot();
}

TEST(SnapshotProperties, SerializeDeserializeIsIdentityAtRandomCycles) {
  util::Rng rng(0x5AA9);
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t cycle = rng.next_below(1500);
    const sim::Snapshot snap = capture_at(cycle);
    const auto bytes = snap.serialize();
    const sim::Snapshot parsed = sim::Snapshot::deserialize(bytes);
    EXPECT_EQ(parsed, snap) << "cycle " << cycle;
    // Re-serialization is byte-stable (the format has one canonical image).
    EXPECT_EQ(parsed.serialize(), bytes) << "cycle " << cycle;
  }
}

TEST(SnapshotProperties, TruncatedImagesAreRejectedAtEveryLength) {
  const auto bytes = capture_at(500).serialize();
  util::Rng rng(0x7122);
  // Every proper prefix must be rejected; sample densely (the image is a
  // few kB, so testing all lengths stays fast too, but sampling plus the
  // short prefixes keeps the intent obvious).
  for (std::size_t length = 0; length < 64; ++length) {
    EXPECT_THROW((void)sim::Snapshot::deserialize(
                     std::span(bytes.data(), length)),
                 std::invalid_argument)
        << "prefix length " << length;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t length = rng.next_below(bytes.size());
    EXPECT_THROW((void)sim::Snapshot::deserialize(
                     std::span(bytes.data(), length)),
                 std::invalid_argument)
        << "prefix length " << length;
  }
}

TEST(SnapshotProperties, CorruptedMagicAndVersionAreRejected) {
  const auto bytes = capture_at(300).serialize();
  // Any corruption of the 8-byte magic or the 4-byte version tag rejects.
  for (std::size_t pos = 0; pos < 12; ++pos) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x40;
    EXPECT_THROW((void)sim::Snapshot::deserialize(corrupted),
                 std::invalid_argument)
        << "byte " << pos;
  }
}

TEST(SnapshotProperties, RandomBitFlipsNeverCrashTheParser) {
  const auto bytes = capture_at(700).serialize();
  util::Rng rng(0xB17F);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    // A flip either parses (into a self-consistent snapshot whose
    // re-serialization round-trips) or throws — it must never crash or
    // read out of bounds.
    try {
      const sim::Snapshot parsed = sim::Snapshot::deserialize(corrupted);
      EXPECT_EQ(parsed.serialize(), corrupted);
    } catch (const std::invalid_argument&) {
      // Expected for most flips.
    }
  }
}

TEST(SnapshotProperties, WarmStateCaptureIsDeterministicAcrossThreads) {
  // The warm-start prepass may run while other sweep threads simulate;
  // captured warm states must not depend on host concurrency. Capture the
  // same spec from many threads at once and require identical bytes.
  scenario::RunSpec spec;
  spec.workload = "sqrt32";
  spec.params.samples = 32;
  const scenario::Engine engine(scenario::Registry::builtins(),
                                scenario::EngineOptions{});

  constexpr unsigned kThreads = 8;
  std::vector<std::vector<std::uint8_t>> captured(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        const auto state = engine.capture_warm_state(spec, 800);
        if (state != nullptr) captured[t] = state->snapshot.serialize();
      });
    }
    for (auto& thread : pool) thread.join();
  }
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(captured[t].empty()) << "thread " << t;
    EXPECT_EQ(captured[t], captured[0]) << "thread " << t;
  }
}

TEST(SnapshotProperties, HostRngStreamRoundTripsThroughHostWords) {
  // The harness-side RNG stream checkpoints alongside the platform: a
  // restored stream must continue exactly where the saved one left off.
  util::Rng original(0xFEED5EED);
  for (int i = 0; i < 100; ++i) (void)original.next_u64();

  sim::Snapshot snap = capture_at(100);
  const auto state = original.state();
  snap.host_words.assign(state.begin(), state.end());
  const sim::Snapshot parsed = sim::Snapshot::deserialize(snap.serialize());

  ASSERT_EQ(parsed.host_words.size(), 4u);
  util::Rng resumed;
  resumed.set_state({parsed.host_words[0], parsed.host_words[1],
                     parsed.host_words[2], parsed.host_words[3]});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resumed.next_u64(), original.next_u64());
  }
}

// --- event-schedule serialization properties --------------------------------

// A synthetic schedule with at least one event of every kind plus the full
// outcome block — small, but it exercises every wire-format field.
sim::EventSchedule synthetic_schedule() {
  sim::EventSchedule schedule;
  schedule.im_fingerprint = 0x1234'5678'9ABC'DEF0ULL;
  sim::ExternalEvent deposit;
  deposit.kind = sim::EventKind::kDmWriteBlock;
  deposit.cycle = 0;
  deposit.addr = 0x40;
  deposit.words = {1, 2, 3, 0xFFFF, 0x8000};
  schedule.events.push_back(deposit);
  sim::ExternalEvent word;
  word.kind = sim::EventKind::kDmWrite;
  word.cycle = 120;
  word.addr = 0x7F0;
  word.word = 0xBEEF;
  schedule.events.push_back(word);
  sim::ExternalEvent wake;
  wake.kind = sim::EventKind::kInterrupt;
  wake.cycle = 350;
  wake.core = 5;
  schedule.events.push_back(wake);
  sim::ExternalEvent broadcast;
  broadcast.kind = sim::EventKind::kInterruptAll;
  broadcast.cycle = 350;
  schedule.events.push_back(broadcast);
  schedule.final_result.status = sim::RunResult::Status::kAllAsleep;
  schedule.final_result.cycles = 4096;
  schedule.final_state_hash = 0xFEED'FACE'CAFE'F00DULL;
  schedule.final_host_words = {7, 0, 0xFFFF'FFFF'FFFF'FFFFULL};
  return schedule;
}

// A real recorded run for envelope-level properties (sleepgen is the
// cheapest wake-heavy builtin).
const scenario::RecordedRun& recorded_sleepgen() {
  static const scenario::RecordedRun run = [] {
    scenario::RunSpec spec;
    spec.workload = "sleepgen";
    spec.params.samples = 8;
    spec.max_cycles = 3'000'000;
    return scenario::record_one(spec, scenario::Registry::builtins()).recorded;
  }();
  return run;
}

TEST(EventScheduleProperties, SerializeDeserializeIsIdentity) {
  for (const sim::EventSchedule& schedule :
       {synthetic_schedule(), recorded_sleepgen().schedule}) {
    const auto bytes = schedule.serialize();
    const sim::EventSchedule parsed = sim::EventSchedule::deserialize(bytes);
    EXPECT_EQ(parsed, schedule);
    // Re-serialization is byte-stable (one canonical image per schedule).
    EXPECT_EQ(parsed.serialize(), bytes);
    EXPECT_EQ(parsed.content_hash(), schedule.content_hash());
  }
}

TEST(EventScheduleProperties, TruncatedImagesAreRejectedAtEveryLength) {
  const auto bytes = synthetic_schedule().serialize();
  // The synthetic image is small enough to test every proper prefix.
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW((void)sim::EventSchedule::deserialize(
                     std::span(bytes.data(), length)),
                 std::invalid_argument)
        << "prefix length " << length;
  }
}

TEST(EventScheduleProperties, CorruptedMagicAndVersionAreRejected) {
  const auto bytes = synthetic_schedule().serialize();
  // Any corruption of the 8-byte magic or the 4-byte version tag rejects.
  for (std::size_t pos = 0; pos < 12; ++pos) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x40;
    EXPECT_THROW((void)sim::EventSchedule::deserialize(corrupted),
                 std::invalid_argument)
        << "byte " << pos;
  }
}

TEST(EventScheduleProperties, RandomBitFlipsNeverCrashTheParser) {
  const auto bytes = recorded_sleepgen().schedule.serialize();
  util::Rng rng(0xE117);
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    // A flip either parses (into a schedule whose re-serialization
    // round-trips) or throws — never a crash or out-of-bounds read.
    try {
      const sim::EventSchedule parsed =
          sim::EventSchedule::deserialize(corrupted);
      EXPECT_EQ(parsed.serialize(), corrupted);
    } catch (const std::invalid_argument&) {
      // Expected for most flips.
    }
  }
}

TEST(EventScheduleProperties, PayloadFlipsFailTheTrailingHash) {
  const auto bytes = synthetic_schedule().serialize();
  // Flipping any single payload byte (past the magic/version header,
  // before the 8-byte trailing hash) must be caught — if not by a field
  // plausibility check, then by the hash itself.
  for (std::size_t pos = 12; pos + 8 < bytes.size(); ++pos) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x01;
    EXPECT_THROW((void)sim::EventSchedule::deserialize(corrupted),
                 std::invalid_argument)
        << "payload byte " << pos;
  }
  // And so must flipping the hash bytes themselves.
  for (std::size_t pos = bytes.size() - 8; pos < bytes.size(); ++pos) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x01;
    EXPECT_THROW((void)sim::EventSchedule::deserialize(corrupted),
                 std::invalid_argument)
        << "hash byte " << pos;
  }
}

TEST(RecordedRunProperties, EnvelopeRoundTripsAndRejectsCorruption) {
  const scenario::RecordedRun& run = recorded_sleepgen();
  const auto bytes = run.serialize();
  const scenario::RecordedRun parsed = scenario::RecordedRun::deserialize(bytes);
  EXPECT_EQ(parsed.spec.workload, run.spec.workload);
  EXPECT_EQ(parsed.csv_row, run.csv_row);
  EXPECT_EQ(parsed.schedule, run.schedule);
  EXPECT_EQ(parsed.serialize(), bytes);

  util::Rng rng(0x0E77);
  for (std::size_t length = 0; length < 32; ++length) {
    EXPECT_THROW((void)scenario::RecordedRun::deserialize(
                     std::span(bytes.data(), length)),
                 std::invalid_argument)
        << "prefix length " << length;
  }
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      const scenario::RecordedRun reparsed =
          scenario::RecordedRun::deserialize(corrupted);
      EXPECT_EQ(reparsed.serialize(), corrupted);
    } catch (const std::invalid_argument&) {
      // Expected: the trailing hash catches nearly every flip.
    }
  }
}

// --- energy-report serialization properties ---------------------------------

TEST(EnergyRecordProperties, EnergyColumnsRoundTripThroughCsvAndJson) {
  // Randomized operating points (plus the no-request control): the energy
  // columns must survive CSV parse → re-emit and JSON parse → re-emit
  // byte-for-byte, and the parsed report must equal the original exactly
  // (format_double is shortest-round-trip, so equality is exact).
  util::Rng rng(0xE9E9);
  std::vector<scenario::RunSpec> specs;
  {
    scenario::RunSpec control;  // no energy request: columns stay empty
    control.workload = "mrpfltr";
    control.params.samples = 24;
    specs.push_back(std::move(control));
  }
  for (int trial = 0; trial < 6; ++trial) {
    scenario::RunSpec spec;
    spec.workload = "mrpfltr";
    spec.params.samples = 24;
    scenario::EnergyRequest request;
    request.params = static_cast<scenario::EnergyRequest::Params>(
        rng.next_below(3));
    // Mix feasible clocks, the nominal-default 0, and infeasible ones.
    request.f_mhz = trial == 0 ? 0.0 : 90.0 * double(rng.next_below(1000)) / 1000.0;
    request.voltage = (trial % 2) ? 0.0 : 0.6 + double(rng.next_below(600)) / 1000.0;
    spec.energy = request;
    specs.push_back(std::move(spec));
  }

  const scenario::Engine engine(scenario::Registry::builtins());
  for (const scenario::RunRecord& record : engine.run(specs)) {
    const std::string row = scenario::to_csv_row(record);
    const std::string csv = scenario::csv_header() + "\n" + row + "\n";
    const auto from_csv = scenario::records_from_csv(csv);
    ASSERT_EQ(from_csv.size(), 1u);
    EXPECT_EQ(scenario::to_csv_row(from_csv[0]), row);

    const auto from_json = scenario::record_from_json(scenario::to_json(record));
    EXPECT_EQ(scenario::to_csv_row(from_json), row);

    // Exact field equality of the parsed report (not just bytes).
    const auto& original = record.energy_report;
    for (const auto* parsed :
         {&from_csv[0].energy_report, &from_json.energy_report}) {
      EXPECT_EQ(parsed->feasible, original.feasible);
      EXPECT_EQ(parsed->f_mhz, original.f_mhz);
      EXPECT_EQ(parsed->voltage, original.voltage);
      EXPECT_EQ(parsed->mops, original.mops);
      EXPECT_EQ(parsed->energy_per_op_pj, original.energy_per_op_pj);
      EXPECT_EQ(parsed->total_energy_uj, original.total_energy_uj);
      EXPECT_EQ(parsed->breakdown.total_mw(), original.breakdown.total_mw());
    }
    // The request itself round-trips (or stays absent).
    EXPECT_EQ(from_csv[0].spec.energy.has_value(), record.spec.energy.has_value());
    if (record.spec.energy) {
      EXPECT_EQ(from_csv[0].spec.energy->params, record.spec.energy->params);
      EXPECT_EQ(from_csv[0].spec.energy->f_mhz, record.spec.energy->f_mhz);
      EXPECT_EQ(from_csv[0].spec.energy->voltage, record.spec.energy->voltage);
    }
  }
}

TEST(EnergyRecordProperties, RequestNeverPerturbsSimulationColumns) {
  // The energy request must be invisible to the simulation: every
  // non-energy column of the record is identical with and without it.
  scenario::RunSpec plain;
  plain.workload = "sqrt32";
  plain.params.samples = 24;
  scenario::RunSpec requested = plain;
  requested.energy = scenario::EnergyRequest{
      scenario::EnergyRequest::Params::kAuto, 40.0, 0.0};

  const scenario::Engine engine(scenario::Registry::builtins());
  const scenario::RunRecord a = engine.run_one(plain);
  const scenario::RunRecord b = engine.run_one(requested);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.useful_ops, b.useful_ops);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.lockstep_fraction, b.lockstep_fraction);
  // And the warm-group identity ignores the request, so both specs share
  // one warm-up prefix in a grouped sweep.
  EXPECT_EQ(scenario::warm_group_key(plain), scenario::warm_group_key(requested));
}

// --- spool parser fuzzing ---------------------------------------------------

/// Calls `feed(bytes, what)` with every proper prefix of `input` and with
/// `flips` copies that have one seeded random bit flipped.
template <typename Bytes, typename Feed>
void for_each_mutant(const Bytes& input, std::uint64_t seed, int flips,
                     const Feed& feed) {
  for (std::size_t length = 0; length < input.size(); ++length) {
    feed(Bytes(input.begin(), input.begin() + static_cast<long>(length)),
         "prefix " + std::to_string(length));
  }
  util::Rng rng(seed);
  for (int trial = 0; trial < flips; ++trial) {
    Bytes corrupted = input;
    const std::size_t at = rng.next_below(corrupted.size());
    corrupted[at] = static_cast<typename Bytes::value_type>(
        corrupted[at] ^ (1u << rng.next_below(8)));
    feed(corrupted, "flip at " + std::to_string(at));
  }
}

/// Feeds `parse` every mutant of `input` (see `for_each_mutant`). Each must
/// parse or throw std::runtime_error / std::invalid_argument — any other
/// exception (or a crash) fails.
template <typename Bytes, typename Parse>
void fuzz_parser(const Bytes& input, std::uint64_t seed, int flips,
                 const Parse& parse) {
  for_each_mutant(input, seed, flips,
                  [&](const Bytes& bytes, const std::string& what) {
                    try {
                      parse(bytes);
                    } catch (const std::runtime_error&) {
                    } catch (const std::invalid_argument&) {
                    } catch (const std::exception& error) {
                      ADD_FAILURE() << what << ": unexpected exception: "
                                    << error.what();
                    }
                  });
}

/// Recomputes a sealed image's trailing hash, so a fuzzed payload reaches
/// the decoder behind the hash check.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> image) {
  const std::uint64_t hash =
      util::fnv1a64(std::span(image.data(), image.size() - 8));
  for (unsigned byte = 0; byte < 8; ++byte) {
    image[image.size() - 8 + byte] =
        static_cast<std::uint8_t>(hash >> (byte * 8));
  }
  return image;
}

std::string spool_property_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/properties_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpoolParserFuzz, ManifestOfEitherKind) {
  scenario::SpoolManifest sweep;
  sweep.fingerprint = 0x0123'4567'89AB'CDEFULL;
  sweep.specs = 5;
  sweep.shards = {{.id = 0, .specs = 3, .bundle_hash = 0xFEEDULL},
                  {.id = 1, .specs = 2, .bundle_hash = 0xBEEFULL}};
  scenario::SpoolManifest campaign = sweep;
  campaign.campaign = true;
  campaign.shards = {{.id = 0, .specs = 3, .begin = 0},
                     {.id = 1, .specs = 2, .begin = 3}};
  for (const scenario::SpoolManifest& manifest : {sweep, campaign}) {
    const std::string text = scenario::spool_manifest_text(manifest);
    const scenario::SpoolManifest parsed =
        scenario::parse_spool_manifest_text(text, "fuzz");
    EXPECT_EQ(parsed.campaign, manifest.campaign);
    EXPECT_EQ(scenario::spool_manifest_text(parsed), text);  // round trip
    fuzz_parser(text, 0x3A41, 400, [](const std::string& bytes) {
      (void)scenario::parse_spool_manifest_text(bytes, "fuzz");
    });
  }
}

TEST(SpoolParserFuzz, BundleClaimPayload) {
  const std::string dir = spool_property_dir("bundle");
  scenario::RunSpec spec;
  spec.workload = "sqrt32";
  spec.params.samples = 8;
  spec.energy = scenario::EnergyRequest{};
  (void)scenario::plan_spool(dir, {spec, spec}, scenario::Registry::builtins(),
                             {.shards = 1});
  const std::vector<std::uint8_t> bundle =
      util::read_file_bytes(dir + "/queue/shard-0000.bundle");
  EXPECT_EQ(scenario::parse_bundle_bytes(bundle, "fuzz").indices.size(), 2u);
  const auto parse = [](const std::vector<std::uint8_t>& bytes) {
    (void)scenario::parse_bundle_bytes(bytes, "fuzz");
  };
  fuzz_parser(bundle, 0xB0B0, 300, parse);
  // Behind the hash: the spec decoder sees the corrupted payload itself.
  fuzz_parser(bundle, 0xB1B1, 300,
              [&](const std::vector<std::uint8_t>& bytes) {
                if (bytes.size() == bundle.size()) parse(resealed(bytes));
              });
}

TEST(SpoolParserFuzz, RangeClaimPayload) {
  const std::string dir = spool_property_dir("range");
  const scenario::Registry& registry = scenario::Registry::builtins();
  scenario::CampaignConfig config;
  config.models = {scenario::ErrorModel::kDmSingle};
  config.count = 3;
  (void)scenario::plan_campaign_spool(dir, recorded_sleepgen(), config,
                                      registry, {.shards = 1});
  scenario::FsTransport transport(dir);
  const auto job = scenario::campaign_job(
      transport, scenario::read_spool_manifest(transport), registry);
  scenario::ClaimedShard claimed;
  claimed.kind = "range";
  claimed.payload = util::read_file_bytes(dir + "/queue/shard-0000.range");
  EXPECT_EQ(job->claim(claimed).size(), 3u);
  fuzz_parser(claimed.payload, 0x7A7A, 400,
              [&](const std::vector<std::uint8_t>& bytes) {
                scenario::ClaimedShard fuzzed = claimed;
                fuzzed.payload = bytes;
                for (const std::uint64_t index : job->claim(fuzzed)) {
                  EXPECT_LT(index, 3u);  // accepted ranges stay in bounds
                }
              });
}

TEST(SpoolParserFuzz, TransportStatusReply) {
  scenario::TransportStatus status;
  status.campaign = true;
  status.spool.fingerprint = 0xABCDEFULL;
  status.spool.specs = 7;
  status.rows_done = 4;
  status.queue_depth = 1;
  status.eta_seconds = 2.5;
  status.spool.shards = {{.id = 0, .specs = 4, .state = "done",
                          .owner = "", .part_final = true},
                         {.id = 1, .specs = 3, .state = "claimed",
                          .owner = "worker one", .partial_rows = 1}};
  status.workers = {{.worker = "worker one", .rows = 4,
                     .rows_per_second = 1.5}};
  const std::string text = scenario::serialize_transport_status(status);
  const scenario::TransportStatus parsed =
      scenario::parse_transport_status(text);
  EXPECT_EQ(scenario::serialize_transport_status(parsed), text);
  fuzz_parser(text, 0x5747, 400, [](const std::string& bytes) {
    (void)scenario::parse_transport_status(bytes);
  });
}

TEST(SpoolParserFuzz, SealUnsealRoundTripRejectsEveryCorruption) {
  constexpr util::Magic kMagic = {'U', 'L', 'P', 'T', 'E', 'S', 'T', '\n'};
  util::Rng rng(0x5EA1);
  std::vector<std::uint8_t> payload(97);
  for (std::uint8_t& byte : payload) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  const std::vector<std::uint8_t> image =
      util::seal(kMagic, 7, [&](util::WireWriter& w) { w.blob(payload); });
  EXPECT_EQ(util::unseal(image, kMagic, 7, "fuzz").blob(), payload);
  EXPECT_THROW((void)util::unseal(image, kMagic, 8, "fuzz"),
               std::invalid_argument);
  // A sealed image has no slack: every proper prefix and every single
  // flipped bit is rejected, never silently accepted.
  for (std::size_t length = 0; length < image.size(); ++length) {
    EXPECT_THROW(
        (void)util::unseal(std::span(image.data(), length), kMagic, 7, "fuzz"),
        std::invalid_argument)
        << "prefix " << length;
  }
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = image;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_THROW((void)util::unseal(corrupted, kMagic, 7, "fuzz"),
                 std::invalid_argument);
  }
  fuzz_parser(image, 0x5EA2, 200, [&](const std::vector<std::uint8_t>& bytes) {
    (void)util::unseal(bytes, kMagic, 7, "fuzz");
  });
}

// --- record, cost and ring parser fuzzing -----------------------------------

TEST(ParserFuzz, RecordCsvAndJson) {
  // Real records of a halting kernel (with an energy report, so every
  // column is populated) and of the windowed monitor (report extras).
  std::vector<scenario::RunSpec> specs(2);
  specs[0].workload = "sqrt32";
  specs[0].params.samples = 16;
  specs[0].energy = scenario::EnergyRequest{};
  specs[1].workload = "streaming";
  specs[1].params.samples = 250;
  const auto records =
      scenario::Engine(scenario::Registry::builtins()).run(specs);
  const std::string csv = scenario::to_csv(records);
  const std::string json = scenario::to_json(records);
  ASSERT_EQ(scenario::to_csv(scenario::records_from_csv(csv)), csv);
  ASSERT_EQ(scenario::to_json(scenario::records_from_json(json)), json);

  // Either a parse or std::invalid_argument; anything else fails.
  const auto strict = [](const char* format, const auto& parse) {
    return [format, &parse](const std::string& bytes,
                            const std::string& what) {
      try {
        (void)parse(bytes);
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& error) {
        ADD_FAILURE() << format << " " << what
                      << ": unexpected exception: " << error.what();
      }
    };
  };
  const auto from_csv = [](const std::string& bytes) {
    return scenario::records_from_csv(bytes);
  };
  const auto from_json = [](const std::string& bytes) {
    return scenario::records_from_json(bytes);
  };
  for_each_mutant(csv, 0xC5F0, 600, strict("csv", from_csv));
  for_each_mutant(json, 0x750F, 600, strict("json", from_json));
}

TEST(ParserFuzz, CostLine) {
  scenario::RunSpec spec;
  spec.workload = "sqrt32";
  const std::string line = scenario::cost_line(spec, 123'456, 0.0421);
  scenario::CostModel model;
  ASSERT_TRUE(scenario::absorb_cost_line(model, line));
  for (const char* wall : {"inf", "nan", "-1", "1e999"}) {
    scenario::CostModel rejected;
    EXPECT_FALSE(scenario::absorb_cost_line(
        rejected, line.substr(0, line.rfind(' ') + 1) + wall))
        << wall;
    EXPECT_TRUE(rejected.empty()) << wall;
  }
  // A malformed line is refused and changes nothing; an absorbed one
  // folds a finite, non-negative wall time.
  for_each_mutant(line, 0xC057, 600, [](const std::string& bytes,
                                        const std::string& what) {
    scenario::CostModel fuzzed;
    if (!scenario::absorb_cost_line(fuzzed, bytes)) {
      EXPECT_TRUE(fuzzed.empty()) << what;
      return;
    }
    ASSERT_EQ(fuzzed.by_spec.size(), 1u) << what;
    const double wall = fuzzed.by_spec.begin()->second.wall_seconds;
    EXPECT_TRUE(std::isfinite(wall) && wall >= 0.0) << what << ": " << wall;
  });
}

TEST(ParserFuzz, CheckpointRing) {
  // A real ring: a five-window streaming run offers an entry per window.
  const std::string dir = spool_property_dir("ring");
  scenario::RunSpec spec;
  spec.workload = "streaming";
  spec.params.samples = 625;
  scenario::EngineOptions options;
  options.checkpoint_ring = {.dir = dir, .stride = 1000, .keep = 3};
  ASSERT_TRUE(scenario::Engine(scenario::Registry::builtins(), options)
                  .run_one(spec)
                  .ok());
  const std::string run_dir = scenario::ring_run_dir(dir, 0);
  const std::uint64_t identity = scenario::ring_identity(spec);

  // Every entry the ring holds, by cycle: the only answers the loader may
  // give once its files are mutated.
  const std::vector<std::uint8_t> manifest =
      util::read_file_bytes(run_dir + "/MANIFEST");
  std::map<std::uint64_t, std::vector<std::uint8_t>> written;
  std::string newest_file;
  {
    std::istringstream lines(std::string(manifest.begin(), manifest.end()));
    std::string tag, file, hash;
    std::uint64_t cycle = 0;
    while (lines >> tag) {
      if (tag != "entry") {
        lines >> file;  // identity or stride value
        continue;
      }
      lines >> cycle >> file >> hash;
      const auto entry =
          scenario::load_latest_ring_entry(run_dir, identity, cycle);
      ASSERT_TRUE(entry.has_value()) << cycle;
      ASSERT_EQ(entry->cycle, cycle);
      written[cycle] = scenario::serialize_warm_state(entry->state);
      newest_file = run_dir + "/" + file;
    }
  }
  ASSERT_GE(written.size(), 2u);
  const std::vector<std::uint8_t> newest = util::read_file_bytes(newest_file);

  const auto load_from = [&](const std::string& path,
                             const std::vector<std::uint8_t>& bytes,
                             const std::string& what) {
    util::write_file_atomic(path, bytes);
    const auto entry =
        scenario::load_latest_ring_entry(run_dir, identity, spec.max_cycles);
    if (!entry) return;
    const auto it = written.find(entry->cycle);
    ASSERT_NE(it, written.end()) << what << ": cycle " << entry->cycle;
    EXPECT_EQ(scenario::serialize_warm_state(entry->state), it->second)
        << what;
  };
  for_each_mutant(manifest, 0x41A6, 600,
                  [&](const std::vector<std::uint8_t>& bytes,
                      const std::string& what) {
                    load_from(run_dir + "/MANIFEST", bytes,
                              "manifest " + what);
                  });
  util::write_file_atomic(run_dir + "/MANIFEST", manifest);
  // The newest entry is large, so its prefixes are a seeded sample.
  util::Rng rng(0x41A7);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t length = rng.next_below(newest.size());
    load_from(newest_file,
              std::vector<std::uint8_t>(newest.begin(),
                                        newest.begin() +
                                            static_cast<long>(length)),
              "entry prefix " + std::to_string(length));
    std::vector<std::uint8_t> flipped = newest;
    const std::size_t at = rng.next_below(flipped.size());
    flipped[at] = static_cast<std::uint8_t>(flipped[at] ^
                                            (1u << rng.next_below(8)));
    load_from(newest_file, flipped, "entry flip at " + std::to_string(at));
  }
}

}  // namespace
}  // namespace ulpsync
