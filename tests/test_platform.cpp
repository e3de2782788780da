// Timing-level tests of the multi-core platform: fetch broadcast and
// serialization, DM arbitration and broadcast, the enhanced D-Xbar policy,
// check-in/check-out timing, sleep/wake, traps, deadlock detection, and
// counter bookkeeping.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "core/lockstep.h"
#include "sim/crossbar.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "util/rng.h"

namespace ulpsync::sim {
namespace {

assembler::Program compile(std::string_view source) {
  auto result = assembler::assemble(source);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

PlatformConfig bare_config(bool with_sync = true) {
  auto config = with_sync ? PlatformConfig::with_synchronizer()
                          : PlatformConfig::without_synchronizer();
  config.start_stagger_cycles = 0;  // deterministic common start
  return config;
}

TEST(PlatformTiming, SingleCoreRunsAtBaseCpi) {
  auto config = bare_config();
  config.num_cores = 1;
  Platform platform(config);
  platform.load_program(compile(R"(
      movi r1, 1
      movi r2, 2
      movi r3, 3
      movi r4, 4
      halt
  )"));
  const auto result = platform.run(100);
  EXPECT_TRUE(result.ok());
  // 4 movi at CPI 2 plus the halt fetch.
  EXPECT_EQ(platform.counters().retired_ops, 5u);
  EXPECT_NEAR(static_cast<double>(result.cycles), 9.0, 1.0);
}

TEST(PlatformTiming, LockstepFetchesBroadcastAsOneAccess) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      movi r1, 1
      movi r2, 2
      movi r3, 3
      halt
  )"));
  const auto result = platform.run(100);
  EXPECT_TRUE(result.ok());
  const auto& counters = platform.counters();
  // 8 cores in lockstep: every fetch group is one bank access.
  EXPECT_EQ(counters.im_fetches_delivered, 8u * 4);
  EXPECT_EQ(counters.im_bank_accesses, 4u);
  EXPECT_EQ(counters.im_broadcast_groups, 4u);
  EXPECT_GT(counters.lockstep_cycles, 0u);
}

TEST(PlatformTiming, StaggeredStartPreventsInitialLockstep) {
  auto config = bare_config(false);
  config.start_stagger_cycles = 3;
  Platform platform(config);
  platform.load_program(compile(R"(
      movi r1, 1
      movi r2, 2
      halt
  )"));
  const auto result = platform.run(200);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(platform.counters().im_broadcast_groups, 0u)
      << "staggered baseline cores never coincide in this straight-line code";
  EXPECT_EQ(platform.counters().im_fetches_delivered, 8u * 3);
}

TEST(PlatformTiming, DivergedFetchesSerializeOnOneBank) {
  // All cores branch on their own id: core 0 takes the branch, the others
  // fall through -- groups must serialize (all code is in IM bank 0).
  auto config = bare_config(false);
  Platform platform(config);
  platform.load_program(compile(R"(
      csrr r1, #0
      cmpi r1, 0
      beq  zero_path
      movi r2, 1
      movi r3, 1
      halt
  zero_path:
      movi r2, 2
      movi r3, 2
      halt
  )"));
  const auto result = platform.run(300);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(platform.counters().fetch_conflict_cycles, 0u);
  EXPECT_GT(platform.counters().core_fetch_stall_cycles, 0u);
  EXPECT_EQ(platform.core_reg(0, 2), 2);
  EXPECT_EQ(platform.core_reg(1, 2), 1);
}

TEST(PlatformTiming, SameAddressLoadsBroadcastOnDm) {
  Platform platform(bare_config());
  platform.dm_write(100, 0x1234);
  platform.load_program(compile(R"(
      ld r1, [r0+100]
      halt
  )"));
  const auto result = platform.run(100);
  EXPECT_TRUE(result.ok());
  for (unsigned c = 0; c < 8; ++c) EXPECT_EQ(platform.core_reg(c, 1), 0x1234);
  EXPECT_EQ(platform.counters().dm_bank_accesses, 1u);
  EXPECT_EQ(platform.counters().dm_broadcast_reads, 1u);
  EXPECT_EQ(platform.counters().dm_requests_granted, 8u);
}

TEST(PlatformTiming, DifferentAddressSameBankSerializes) {
  // Each core stores to result slot id (addresses 0x800+id, one bank).
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      csrr r1, #0
      movi r2, 0x800
      stx  r1, [r2+r1]
      halt
  )"));
  const auto result = platform.run(200);
  EXPECT_TRUE(result.ok());
  for (unsigned c = 0; c < 8; ++c) EXPECT_EQ(platform.dm_read(0x800 + c), c);
  EXPECT_GE(platform.counters().dm_bank_accesses, 8u);
  EXPECT_GT(platform.counters().dm_conflict_cycles, 0u);
}

// --- which core a conflicting bank serves -----------------------------------
//
// Three cores request three distinct addresses of one bank every cycle.
// The served core — the one whose retire count moves — must follow the
// arbitration policy cycle by cycle, whether the cycle runs in tick() or
// in run()'s region executor. A fast-vs-naive comparison cannot see a bug
// in this rule, because both share it.

constexpr unsigned kBlockLength = 48;  // outlasts the asserted window

// Each core jumps (in lockstep, so without conflicts) to its own straight
// block; block-mapped IM puts all three in bank 0, so from then on the
// three fetch distinct PCs of one bank every cycle.
std::string im_conflict_kernel() {
  std::string source = R"(
      csrr r1, #0
      movi r5, )" + std::to_string(kBlockLength + 1) + R"(
      mul  r5, r5, r1
      movi r6, block0
      add  r5, r5, r6
      jr   r5
  block0:
  )";
  for (unsigned block = 0; block < 3; ++block) {
    for (unsigned k = 0; k < kBlockLength; ++k) source += "      addi r2, r2, 1\n";
    source += "      halt\n";
  }
  return source;
}
constexpr std::uint32_t kImPreamble = 6;  // slots before block0

// Each core loads its own word of DM bank 1 over and over: one requester
// per core at the D-Xbar every cycle (with base CPI 1 the served core
// fetches its next load in the very next cycle).
std::string dm_conflict_kernel() {
  std::string source = R"(
      csrr r1, #0
      movi r4, 2048
      add  r4, r4, r1
  )";
  for (unsigned k = 0; k < kBlockLength; ++k) source += "      ldx  r3, [r4+r0]\n";
  return source + "      halt\n";
}
constexpr std::uint32_t kDmPreamble = 3;  // slots before the first load

// The policy's pick among the three requesters, given the state before the
// cycle.
unsigned expected_winner(ArbitrationPolicy policy, const Snapshot& before) {
  constexpr unsigned n = 3;
  unsigned winner = 0;
  for (unsigned c = 1; c < n; ++c) {
    switch (policy) {
      case ArbitrationPolicy::kFixedPriority:
        break;  // the lowest index
      case ArbitrationPolicy::kOldestFirst:  // ties keep the lower index
        if (before.cores[c].stall_age > before.cores[winner].stall_age)
          winner = c;
        break;
      case ArbitrationPolicy::kRoundRobin: {  // first at or after the pointer
        const auto pointer =
            static_cast<unsigned>((before.counters.cycles + 1) % n);
        if ((c + n - pointer) % n < (winner + n - pointer) % n) winner = c;
        break;
      }
    }
  }
  return winner;
}

void expect_policy_serves(ArbitrationPolicy policy, const std::string& kernel,
                          std::uint32_t preamble, bool via_run) {
  auto config = bare_config(false);  // baseline: no D-Xbar policy groups
  config.num_cores = 3;
  config.base_cpi = 1;
  config.im_line_slots = 0;
  config.arbitration = policy;
  Platform platform(config);
  const auto program = compile(kernel);
  platform.load_program(program);
  auto step = [&] {
    if (via_run) {
      EXPECT_EQ(platform.run(platform.counters().cycles + 1).status,
                RunResult::Status::kMaxCycles);
    } else {
      platform.tick();
    }
  };
  // The shared preamble runs in lockstep, free of conflicts.
  for (unsigned guard = 0; guard < 2 * preamble; ++guard) {
    bool past = true;
    for (unsigned c = 0; c < 3; ++c)
      past = past && platform.core_pc(c) >= program.origin + preamble;
    if (past) break;
    step();
  }
  std::array<unsigned, 3> wins{};
  for (unsigned cycle = 0; cycle < 40; ++cycle) {
    const Snapshot before = platform.save_snapshot();
    const unsigned expected = expected_winner(policy, before);
    step();
    for (unsigned c = 0; c < 3; ++c) {
      const bool served = platform.counters().per_core_retired[c] !=
                          before.counters.per_core_retired[c];
      ASSERT_EQ(served, c == expected)
          << "core " << c << " at cycle " << before.counters.cycles
          << (via_run ? " (run)" : " (tick)");
    }
    wins[expected] += 1;
  }
  if (via_run) EXPECT_GT(platform.fetch_region_cycles(), 0u);
  // The window exercises the policy: fixed priority starves cores 1-2,
  // the other two policies rotate through all three.
  for (unsigned c = 0; c < 3; ++c) {
    if (policy == ArbitrationPolicy::kFixedPriority) {
      EXPECT_EQ(wins[c] > 0, c == 0);
    } else {
      EXPECT_GT(wins[c], 0u);
    }
  }
}

TEST(PlatformArbitration, FixedPriorityServesLowestIndex) {
  for (const bool via_run : {false, true}) {
    expect_policy_serves(ArbitrationPolicy::kFixedPriority,
                         im_conflict_kernel(), kImPreamble, via_run);
    expect_policy_serves(ArbitrationPolicy::kFixedPriority,
                         dm_conflict_kernel(), kDmPreamble, via_run);
  }
}

TEST(PlatformArbitration, OldestFirstServesLongestWaiting) {
  for (const bool via_run : {false, true}) {
    expect_policy_serves(ArbitrationPolicy::kOldestFirst, im_conflict_kernel(),
                         kImPreamble, via_run);
    expect_policy_serves(ArbitrationPolicy::kOldestFirst, dm_conflict_kernel(),
                         kDmPreamble, via_run);
  }
}

TEST(PlatformArbitration, RoundRobinServesFirstAtOrAfterPointer) {
  for (const bool via_run : {false, true}) {
    expect_policy_serves(ArbitrationPolicy::kRoundRobin, im_conflict_kernel(),
                         kImPreamble, via_run);
    expect_policy_serves(ArbitrationPolicy::kRoundRobin, dm_conflict_kernel(),
                         kDmPreamble, via_run);
  }
}

// --- the shared crossbar rule against an independent reference --------------

/// One bank's requesters with their stall ages and PCs, and for a DM bank
/// their accesses (by core).
struct BankRequest {
  std::uint64_t mask = 0;
  std::vector<std::uint64_t> age;
  std::vector<std::uint32_t> pc;
  std::vector<std::uint32_t> addr;
  std::vector<std::uint8_t> store;
};

/// An independent, list-based statement of the rule: requesters in
/// ascending core order, a rank loop for the winner, then a first-served
/// loop for the served set.
std::vector<unsigned> requester_list(std::uint64_t mask) {
  std::vector<unsigned> cores;
  for (unsigned core = 0; core < 64; ++core)
    if ((mask >> core) & 1u) cores.push_back(core);
  return cores;
}

unsigned reference_winner(const BankRequest& r, const PlatformConfig& config,
                          unsigned rr_pointer) {
  const std::vector<unsigned> cores = requester_list(r.mask);
  unsigned winner = 0;
  if (config.arbitration == ArbitrationPolicy::kOldestFirst) {
    for (unsigned k = 1; k < cores.size(); ++k)
      if (r.age[cores[k]] > r.age[cores[winner]]) winner = k;
  } else if (config.arbitration == ArbitrationPolicy::kRoundRobin) {
    auto rank = [&](unsigned core) {
      return core >= rr_pointer ? core - rr_pointer
                                : core + config.num_cores - rr_pointer;
    };
    for (unsigned k = 1; k < cores.size(); ++k)
      if (rank(cores[k]) < rank(cores[winner])) winner = k;
  }
  return cores[winner];
}

std::uint64_t reference_served(const BankRequest& r,
                               const PlatformConfig& config,
                               unsigned rr_pointer) {
  const std::uint32_t win_pc = r.pc[reference_winner(r, config, rr_pointer)];
  bool uniform = true;
  for (const unsigned core : requester_list(r.mask))
    uniform = uniform && r.pc[core] == win_pc;
  const bool group =
      config.im_fetch_broadcast &&
      (config.features.ixbar_partial_broadcast || uniform);
  std::uint64_t served = 0;
  bool first_served = true;
  for (const unsigned core : requester_list(r.mask)) {
    if (r.pc[core] == win_pc && (group || first_served)) {
      served |= 1ull << core;
      first_served = false;
    }
  }
  return served;
}

/// Checks the mask rule against the reference for one request under every
/// policy and broadcast combination, with the same-PC sets answered both
/// ways the platform answers them: `tick()`'s scan over the requesters, and
/// a per-PC core mask over every core, requesters or not, as the region
/// executor keeps one per program slot. Reports and returns false on the
/// first mismatch.
bool rule_matches_reference(const BankRequest& r, unsigned num_cores,
                            unsigned rr_pointer) {
  auto age_of = [&](unsigned core) { return r.age[core]; };
  auto pc_of = [&](unsigned core) { return r.pc[core]; };
  auto scan_at_pc = [&](unsigned core) {
    return requesters_at_pc(r.mask, core, pc_of);
  };
  const std::uint64_t every_core =
      num_cores == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << num_cores) - 1;
  auto slot_at_pc = [&](unsigned core) {
    return requesters_at_pc(every_core, core, pc_of);
  };
  for (const auto policy :
       {ArbitrationPolicy::kFixedPriority, ArbitrationPolicy::kOldestFirst,
        ArbitrationPolicy::kRoundRobin}) {
    for (const unsigned combo : {0u, 1u, 2u, 3u}) {
      auto config = PlatformConfig::without_synchronizer();
      config.num_cores = num_cores;
      config.arbitration = policy;
      config.im_fetch_broadcast = (combo & 1u) != 0;
      config.features.ixbar_partial_broadcast = (combo & 2u) != 0;
      const unsigned want_winner = reference_winner(r, config, rr_pointer);
      const std::uint64_t want_served =
          reference_served(r, config, rr_pointer);
      const unsigned winner =
          conflict_winner(r.mask, policy, rr_pointer, age_of);
      const std::uint64_t served =
          fetch_served(r.mask, config, rr_pointer, age_of, scan_at_pc);
      const std::uint64_t served_by_slot =
          fetch_served(r.mask, config, rr_pointer, age_of, slot_at_pc);
      if (winner == want_winner && served == want_served &&
          served_by_slot == want_served)
        continue;
      ADD_FAILURE() << "mask 0x" << std::hex << r.mask << std::dec
                    << ", policy " << static_cast<int>(policy) << ", rr "
                    << rr_pointer << ", fetch broadcast "
                    << config.im_fetch_broadcast << ", partial "
                    << config.features.ixbar_partial_broadcast
                    << ": winner " << winner << " (reference " << want_winner
                    << "), served 0x" << std::hex << served << ", by slot 0x"
                    << served_by_slot << " (reference 0x" << want_served
                    << ")";
      return false;
    }
  }
  return true;
}

/// Stall ages and PCs from small pools, so ties and same-PC groups are
/// common.
void draw_ages_and_pcs(BankRequest& r, unsigned num_cores, util::Rng& rng) {
  r.age.resize(num_cores);
  r.pc.resize(num_cores);
  for (unsigned core = 0; core < num_cores; ++core) {
    r.age[core] = rng.next_below(3);
    r.pc[core] = 0x100 + static_cast<std::uint32_t>(rng.next_below(3));
  }
}

TEST(CrossbarRule, MatchesListReferenceOnEveryMaskAtThreeAndEightCores) {
  util::Rng rng(18);
  for (const unsigned num_cores : {3u, 8u}) {
    for (std::uint64_t mask = 1; mask < (1ull << num_cores); ++mask) {
      for (unsigned rr = 0; rr < num_cores; ++rr) {
        for (int draw = 0; draw < 3; ++draw) {
          BankRequest request;
          request.mask = mask;
          draw_ages_and_pcs(request, num_cores, rng);
          ASSERT_TRUE(rule_matches_reference(request, num_cores, rr));
        }
      }
    }
  }
}

TEST(CrossbarRule, MatchesListReferenceOnWideMasks) {
  // 64 cores: masks of varied density, each with a core at bit 32 or above.
  util::Rng rng(64);
  for (int trial = 0; trial < 10'000; ++trial) {
    BankRequest request;
    request.mask = rng.next_u64();
    for (std::uint64_t thin = rng.next_below(4); thin > 0; --thin)
      request.mask &= rng.next_u64();
    request.mask |= 1ull << (32 + rng.next_below(32));
    draw_ages_and_pcs(request, 64, rng);
    const auto rr = static_cast<unsigned>(rng.next_below(64));
    ASSERT_TRUE(rule_matches_reference(request, 64, rr)) << "trial " << trial;
  }
}

// --- the D-Xbar rule against the list logic it replaced ----------------------
//
// The reference below is the D-Xbar's former list code for one bank's run
// of requesters (ascending core order): its conflict-free test, its plain
// service, a policy group's leader service, and the std::map pick of the
// group among conflicting requesters.

/// Whether the bank's cycle is a conflict, and whom it serves.
struct DxbarVerdict {
  bool conflict = false;
  std::uint64_t served = 0;
};

DxbarVerdict reference_dxbar(const BankRequest& r, const PlatformConfig& config,
                             unsigned rr_pointer) {
  const std::vector<unsigned> cores = requester_list(r.mask);
  bool all_loads_same_addr = true;
  for (const unsigned core : cores)
    if (r.store[core] || r.addr[core] != r.addr[cores.front()])
      all_loads_same_addr = false;
  if (cores.size() == 1 || (all_loads_same_addr && config.dm_read_broadcast))
    return {false, r.mask};
  const unsigned winner = reference_winner(r, config, rr_pointer);
  std::uint64_t served = 0;
  for (const unsigned core : cores) {
    const bool serve = !r.store[winner] && config.dm_read_broadcast
                           ? (!r.store[core] && r.addr[core] == r.addr[winner])
                           : core == winner;
    if (serve) served |= 1ull << core;
  }
  return {true, served};
}

/// A policy group's next service, with `r.mask` its unserved members: the
/// lowest member's address, its loads together, a store alone.
std::uint64_t reference_leader_service(const BankRequest& r) {
  const std::vector<unsigned> cores = requester_list(r.mask);
  const unsigned leader = cores.front();
  std::uint64_t served = 0;
  for (const unsigned core : cores) {
    if (r.addr[core] != r.addr[leader]) continue;
    if (r.store[leader] ? core == leader : !r.store[core])
      served |= 1ull << core;
  }
  return served;
}

std::uint64_t reference_group(const BankRequest& r) {
  std::map<std::uint32_t, std::vector<unsigned>> by_pc;
  for (const unsigned core : requester_list(r.mask))
    by_pc[r.pc[core]].push_back(core);
  const std::vector<unsigned>* best = nullptr;
  for (const auto& [pc, members] : by_pc) {
    (void)pc;
    if (members.size() < 2) continue;
    if (best == nullptr || members.size() > best->size()) best = &members;
  }
  std::uint64_t group = 0;
  if (best != nullptr)
    for (const unsigned core : *best) group |= 1ull << core;
  return group;
}

/// Checks `access_served` and `pc_group` against the reference for one
/// request under every policy and DM broadcast setting; reports and returns
/// false on the first mismatch.
bool dxbar_rule_matches_reference(const BankRequest& r, unsigned num_cores,
                                  unsigned rr_pointer) {
  auto age_of = [&](unsigned core) { return r.age[core]; };
  auto addr_of = [&](unsigned core) { return r.addr[core]; };
  auto is_store = [&](unsigned core) { return r.store[core] != 0; };
  const std::uint64_t group =
      pc_group(r.mask, [&](unsigned core) { return r.pc[core]; });
  const std::uint64_t leader =
      access_served(r.mask, ArbitrationPolicy::kFixedPriority, 0,
                    /*broadcast=*/true, age_of, addr_of, is_store);
  if (group != reference_group(r) || leader != reference_leader_service(r)) {
    ADD_FAILURE() << "mask 0x" << std::hex << r.mask << ": group 0x" << group
                  << " (reference 0x" << reference_group(r)
                  << "), leader service 0x" << leader << " (reference 0x"
                  << reference_leader_service(r) << ")";
    return false;
  }
  for (const auto policy :
       {ArbitrationPolicy::kFixedPriority, ArbitrationPolicy::kOldestFirst,
        ArbitrationPolicy::kRoundRobin}) {
    for (const bool broadcast : {false, true}) {
      auto config = PlatformConfig::without_synchronizer();
      config.num_cores = num_cores;
      config.arbitration = policy;
      config.dm_read_broadcast = broadcast;
      const DxbarVerdict want = reference_dxbar(r, config, rr_pointer);
      const std::uint64_t served = access_served(
          r.mask, policy, rr_pointer, broadcast, age_of, addr_of, is_store);
      if (served == want.served && (served != r.mask) == want.conflict)
        continue;
      ADD_FAILURE() << "mask 0x" << std::hex << r.mask << std::dec
                    << ", policy " << static_cast<int>(policy) << ", rr "
                    << rr_pointer << ", DM broadcast " << broadcast
                    << ": served 0x" << std::hex << served << " (reference 0x"
                    << want.served << "), reference conflict "
                    << want.conflict;
      return false;
    }
  }
  return true;
}

/// Stall ages, PCs and accesses from small pools: addresses from three
/// words of one bank, a quarter of them stores.
void draw_dm_request(BankRequest& r, unsigned num_cores, util::Rng& rng) {
  draw_ages_and_pcs(r, num_cores, rng);
  r.addr.resize(num_cores);
  r.store.resize(num_cores);
  for (unsigned core = 0; core < num_cores; ++core) {
    r.addr[core] = 0x800 + static_cast<std::uint32_t>(rng.next_below(3));
    r.store[core] = rng.next_below(4) == 0 ? 1 : 0;
  }
}

TEST(DxbarRule, MatchesListReferenceOnEveryMaskAtThreeAndEightCores) {
  util::Rng rng(22);
  for (const unsigned num_cores : {3u, 8u}) {
    for (std::uint64_t mask = 1; mask < (1ull << num_cores); ++mask) {
      for (unsigned rr = 0; rr < num_cores; ++rr) {
        for (int draw = 0; draw < 3; ++draw) {
          BankRequest request;
          request.mask = mask;
          draw_dm_request(request, num_cores, rng);
          ASSERT_TRUE(dxbar_rule_matches_reference(request, num_cores, rr));
        }
      }
    }
  }
}

TEST(DxbarRule, MatchesListReferenceOnWideMasks) {
  util::Rng rng(68);
  for (int trial = 0; trial < 10'000; ++trial) {
    BankRequest request;
    request.mask = rng.next_u64();
    for (std::uint64_t thin = rng.next_below(4); thin > 0; --thin)
      request.mask &= rng.next_u64();
    request.mask |= 1ull << (32 + rng.next_below(32));
    draw_dm_request(request, 64, rng);
    const auto rr = static_cast<unsigned>(rng.next_below(64));
    ASSERT_TRUE(dxbar_rule_matches_reference(request, 64, rr))
        << "trial " << trial;
  }
}

TEST(PlatformPolicy, DxbarPolicyKeepsConflictingCoresInLockstep) {
  // With the enhanced policy, the eight same-PC stores above must finish
  // together: afterwards all cores fetch the next instruction in the same
  // cycle (observable as a broadcast on the instruction after the store).
  for (const bool policy : {false, true}) {
    auto config = bare_config();
    config.features.dxbar_pc_policy = policy;
    Platform platform(config);
    platform.load_program(compile(R"(
        csrr r1, #0
        movi r2, 0x800
        stx  r1, [r2+r1]
        movi r3, 7
        movi r4, 9
        halt
    )"));
    const auto result = platform.run(300);
    EXPECT_TRUE(result.ok());
    const auto& counters = platform.counters();
    if (policy) {
      EXPECT_GT(counters.policy_hold_events, 0u);
      // The three instructions after the store broadcast as full groups.
      EXPECT_GE(counters.im_broadcast_groups, 5u);
      // All cores retire the store in the same cycle -> no core ran ahead:
      // every fetch after the conflict is a broadcast, so unicast fetches
      // only stem from the code before the store.
      EXPECT_EQ(counters.im_bank_accesses,
                counters.im_broadcast_groups +
                    (counters.im_fetches_delivered -
                     8 * counters.im_broadcast_groups));
    } else {
      EXPECT_EQ(counters.policy_hold_events, 0u);
    }
  }
}

// --- D-Xbar waiters on the bank the synchronizer's RMW holds ----------------
//
// Cores 1..n-1 load their own word of DM bank 0 (0x50 + id) `loads` times
// at one PC, so with the enhanced policy every load round forms a policy
// group. Core 0 runs `delay` ALU ops, then six SINCs on checkpoint word 1,
// also in bank 0: the RMWs hold the bank while the loads wait on it.
std::string locked_bank_kernel(unsigned delay, unsigned loads) {
  std::string source = R"(
      csrr r1, #0
      movi r4, 0x50
      cmpi r1, 0
      beq  core0
  )";
  for (unsigned k = 0; k < loads; ++k) source += "      ldx  r3, [r4+r1]\n";
  source += "      halt\n  core0:\n";
  for (unsigned k = 0; k < delay; ++k) source += "      add  r0, r0, r0\n";
  for (unsigned k = 0; k < 6; ++k) source += "      sinc #1\n";
  return source + "      halt\n";
}

/// True when, in the tick that led to `after`, the RMW held DM bank 0.
bool bank0_locked(const Snapshot& after, const PlatformConfig& config) {
  return after.sync.inflight_active &&
         after.sync.inflight_addr / config.dm_bank_words == 0;
}

TEST(DxbarLockedBank, PlainRequestersStallEachLockedCycleThenAreServed) {
  // Without the enhanced policy no group forms: the loads waiting on the
  // RMW's bank are plain requesters.
  auto config = bare_config();
  config.num_cores = 4;
  config.features.dxbar_pc_policy = false;
  Platform platform(config);
  platform.load_program(compile(locked_bank_kernel(0, 1)));
  for (unsigned core = 1; core < 4; ++core)
    platform.dm_write(0x50 + core, static_cast<std::uint16_t>(1000 + core));
  unsigned locked_cycles = 0;
  for (unsigned cycle = 0; cycle < 200 && !platform.all_halted(); ++cycle) {
    const Snapshot before = platform.save_snapshot();
    platform.tick();
    const Snapshot after = platform.save_snapshot();
    if (!bank0_locked(after, config)) continue;
    unsigned waiting = 0;
    for (unsigned core = 1; core < 4; ++core) {
      if (after.cores[core].status != CoreStatus::kMemWait) continue;
      ++waiting;
      EXPECT_EQ(after.cores[core].stall_age,
                before.cores[core].stall_age + 1)
          << "core " << core << " at cycle " << after.cycle();
    }
    if (waiting == 0) continue;
    ++locked_cycles;
    EXPECT_EQ(after.counters.core_mem_stall_cycles,
              before.counters.core_mem_stall_cycles + waiting)
        << "cycle " << after.cycle();
    EXPECT_EQ(after.counters.dm_requests_granted,
              before.counters.dm_requests_granted);
  }
  ASSERT_TRUE(platform.all_halted());
  EXPECT_GT(locked_cycles, 1u);
  for (unsigned core = 1; core < 4; ++core)
    EXPECT_EQ(platform.core_reg(core, 3), 1000 + core)
        << "served once the RMW finished";
  EXPECT_EQ(platform.counters().dm_requests_granted, 3u);
}

TEST(DxbarLockedBank, EveryWaiterStallsWhetherOrNotAGroupHoldsTheBank) {
  // delay 0: the RMWs lock bank 0 while the three loads wait with no group
  // (the group forms once the bank is free). delay 1: the group forms first
  // and the RMWs lock its bank while it is half served. Either way each
  // locked cycle costs every waiter (requester or held member) one stall
  // cycle and one cycle of age, so both runs count the same stalls.
  auto config = bare_config();
  config.num_cores = 4;
  std::uint64_t stalls[2] = {};
  for (const unsigned delay : {0u, 1u}) {
    Platform platform(config);
    platform.load_program(compile(locked_bank_kernel(delay, 12)));
    unsigned held_group = 0;
    unsigned waited_without_group = 0;
    for (unsigned cycle = 0; cycle < 400 && !platform.all_halted(); ++cycle) {
      const Snapshot before = platform.save_snapshot();
      platform.tick();
      const Snapshot after = platform.save_snapshot();
      // A member held through a cycle, locked or not, waits it out too.
      for (unsigned core = 1; core < 4; ++core) {
        if (before.cores[core].status == CoreStatus::kPolicyHold &&
            after.cores[core].status == CoreStatus::kPolicyHold)
          EXPECT_EQ(after.cores[core].stall_age,
                    before.cores[core].stall_age + 1)
              << "delay " << delay << ", core " << core << " at cycle "
              << after.cycle();
      }
      if (!bank0_locked(after, config)) continue;
      unsigned waiting = 0;
      for (unsigned core = 1; core < 4; ++core) {
        const CoreStatus status = after.cores[core].status;
        if (status != CoreStatus::kMemWait &&
            status != CoreStatus::kPolicyHold)
          continue;
        ++waiting;
        EXPECT_EQ(after.cores[core].stall_age,
                  before.cores[core].stall_age + 1)
            << "delay " << delay << ", core " << core << " at cycle "
            << after.cycle();
      }
      EXPECT_EQ(after.counters.core_mem_stall_cycles,
                before.counters.core_mem_stall_cycles + waiting)
          << "delay " << delay << " at cycle " << after.cycle();
      if (after.policy_groups[0].active) {
        ++held_group;
      } else if (waiting > 0) {
        ++waited_without_group;
      }
    }
    ASSERT_TRUE(platform.all_halted()) << "delay " << delay;
    EXPECT_EQ(held_group > 0, delay == 1) << "delay " << delay;
    EXPECT_EQ(waited_without_group > 0, delay == 0) << "delay " << delay;
    EXPECT_EQ(platform.counters().policy_hold_events, 12u);
    EXPECT_EQ(platform.counters().dm_requests_granted, 36u);
    stalls[delay] = platform.counters().core_mem_stall_cycles;
  }
  EXPECT_EQ(stalls[0], stalls[1]);
}

TEST(DxbarPolicySnapshot, RestoreInsideAHalfServedGroupIsBitExact) {
  // Four cores load their own word of bank 0 at one PC: each round forms a
  // group. Snapshot while a group has held and waiting members, then resume
  // from the serialized image with the region executor off and on.
  auto config = bare_config();
  config.num_cores = 4;
  const auto program = compile(R"(
      csrr r1, #0
      movi r4, 0x50
      ldx  r3, [r4+r1]
      add  r5, r5, r3
      ldx  r3, [r4+r1]
      add  r5, r5, r3
      stx  r5, [r4+r1]
      ldx  r3, [r4+r1]
      add  r5, r5, r3
      halt
  )");
  auto load = [&](Platform& platform) {
    platform.load_program(program);
    for (std::uint32_t k = 0; k < 4; ++k)
      platform.dm_write(0x50 + k, static_cast<std::uint16_t>(100 + 7 * k));
  };

  Platform straight(config);
  load(straight);
  const RunResult want = straight.run(10'000);
  ASSERT_TRUE(want.ok());
  const Snapshot want_state = straight.save_snapshot();

  Platform stepped(config);
  load(stepped);
  std::optional<Snapshot> inside;
  for (unsigned cycle = 0; cycle < 400 && !inside; ++cycle) {
    stepped.tick();
    const Snapshot snap = stepped.save_snapshot();
    unsigned held = 0;
    unsigned waiting = 0;
    for (const CoreSnapshot& core : snap.cores) {
      held += core.status == CoreStatus::kPolicyHold;
      waiting += core.status == CoreStatus::kMemWait;
    }
    if (snap.active_policy_groups == 1 && held > 0 && waiting > 0)
      inside = Snapshot::deserialize(snap.serialize());
  }
  ASSERT_TRUE(inside.has_value()) << "no half-served group was reached";
  EXPECT_TRUE(inside->policy_groups[0].active);

  for (const bool fast_forward : {false, true}) {
    auto resumed_config = config;
    resumed_config.fast_forward = fast_forward;
    Platform resumed(resumed_config);
    load(resumed);
    resumed.restore_snapshot(*inside);
    EXPECT_EQ(resumed.run(10'000), want) << "fast_forward " << fast_forward;
    EXPECT_TRUE(snapshots_equal(resumed.save_snapshot(), want_state,
                                DivergenceScope::kFullState))
        << "fast_forward " << fast_forward << ":\n"
        << diff_snapshots(resumed.save_snapshot(), want_state);
  }
}

TEST(PlatformSync, CheckInCheckOutTakesTwoCyclesWhenMerged) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      sinc #0
      sdec #0
      halt
  )"));
  const auto result = platform.run(100);
  EXPECT_TRUE(result.ok());
  const auto& stats = platform.sync_stats();
  EXPECT_EQ(stats.checkins, 8u);
  EXPECT_EQ(stats.checkouts, 8u);
  EXPECT_EQ(stats.rmw_ops, 2u) << "one merged RMW per phase";
  EXPECT_EQ(stats.dm_accesses, 4u);
  EXPECT_EQ(stats.wakeup_events, 1u);
  EXPECT_EQ(stats.wakeups_delivered, 8u);
  EXPECT_EQ(platform.dm_read(0), 0) << "checkpoint word cleared after wake";
}

TEST(PlatformSync, RegionResynchronizesDivergedCores) {
  // Cores diverge on a data-dependent branch, then re-align at the
  // check-out; the code after the region must broadcast as one group.
  auto config = bare_config();
  Platform platform(config);
  platform.load_program(compile(R"(
      csrr r1, #0
      sinc #0
      cmpi r1, 4
      blt  low
      movi r2, 10
      movi r3, 11
      bra  join
  low:
      movi r2, 20
  join:
      sdec #0
      movi r4, 1
      movi r5, 2
      movi r6, 3
      halt
  )"));
  core::LockstepAnalyzer analyzer;
  analyzer.attach(platform);
  const auto result = platform.run(300);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(platform.core_reg(0, 2), 20);
  EXPECT_EQ(platform.core_reg(7, 2), 10);
  // After the wake-up, the tail (movi r4/r5/r6, halt) is fetched in
  // lockstep: at least those 4 broadcast groups must appear.
  EXPECT_GE(platform.counters().im_broadcast_groups, 4u);
  EXPECT_EQ(platform.sync_stats().wakeup_events, 1u);
}

TEST(PlatformSync, SincWithoutHardwareTraps) {
  Platform platform(bare_config(false));
  platform.load_program(compile("sinc #0\nhalt\n"));
  const auto result = platform.run(100);
  EXPECT_EQ(result.status, RunResult::Status::kTrap);
  EXPECT_EQ(result.trap, TrapKind::kSyncWithoutHardware);
}

TEST(PlatformSync, UnbalancedCheckoutDeadlocks) {
  // SDEC without matching check-ins by the others: the core sleeps forever.
  auto config = bare_config();
  config.num_cores = 2;
  Platform platform(config);
  platform.load_program(compile(R"(
      csrr r1, #0
      cmpi r1, 0
      bne  other
      sinc #0
      sinc #1
      sdec #1
      halt
  other:
      sinc #1
      sdec #0
      halt
  )"));
  const auto result = platform.run(10'000);
  EXPECT_EQ(result.status, RunResult::Status::kAllAsleep);
}

TEST(PlatformTraps, DmOutOfRange) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      movi r1, 0x8000
      ld   r2, [r1]
      halt
  )"));
  const auto result = platform.run(100);
  EXPECT_EQ(result.status, RunResult::Status::kTrap);
  EXPECT_EQ(result.trap, TrapKind::kDmOutOfRange);
}

TEST(PlatformTraps, RunawayPcTraps) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      movi r1, 3000
      jr   r1
  )"));
  const auto result = platform.run(100);
  EXPECT_EQ(result.status, RunResult::Status::kTrap);
  EXPECT_EQ(result.trap, TrapKind::kImOutOfRange);
}

TEST(PlatformTraps, PlainSleepWithNoWakeDeadlocks) {
  Platform platform(bare_config());
  platform.load_program(compile("sleep\nhalt\n"));
  const auto result = platform.run(1000);
  EXPECT_EQ(result.status, RunResult::Status::kAllAsleep);
}

TEST(PlatformRun, MaxCyclesStopsTheRun) {
  Platform platform(bare_config());
  platform.load_program(compile("spin: bra spin\n"));
  const auto result = platform.run(50);
  EXPECT_EQ(result.status, RunResult::Status::kMaxCycles);
  EXPECT_EQ(result.cycles, 50u);
}

TEST(PlatformRun, ResetPreservesDmUnlessCleared) {
  Platform platform(bare_config());
  platform.load_program(compile("halt\n"));
  platform.dm_write(500, 0xAAAA);
  (void)platform.run(10);
  platform.reset();
  EXPECT_EQ(platform.dm_read(500), 0xAAAA);
  EXPECT_EQ(platform.counters().cycles, 0u);
  EXPECT_EQ(platform.core_pc(0), 0u);
  platform.reset(/*clear_dm=*/true);
  EXPECT_EQ(platform.dm_read(500), 0);
}

TEST(PlatformRun, BlockDmAccessors) {
  Platform platform(bare_config());
  const std::vector<std::uint16_t> data = {1, 2, 3, 4, 5};
  platform.dm_write_block(100, data);
  EXPECT_EQ(platform.dm_read_block(100, 5), data);
}

TEST(PlatformRun, ObserverSeesEveryCycle) {
  Platform platform(bare_config());
  platform.load_program(compile("movi r1, 1\nhalt\n"));
  std::uint64_t observed = 0;
  platform.set_observer([&](const Platform& p) {
    ++observed;
    EXPECT_EQ(p.counters().cycles, observed);
  });
  const auto result = platform.run(100);
  EXPECT_EQ(observed, result.cycles);
}

TEST(PlatformCounters, PerCoreRetiredSumsToTotal) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      csrr r1, #0
      cmpi r1, 3
      blt  small
      movi r2, 1
      movi r2, 2
      halt
  small:
      movi r2, 3
      halt
  )"));
  EXPECT_TRUE(platform.run(1000).ok());
  const auto& counters = platform.counters();
  const std::uint64_t sum = std::accumulate(counters.per_core_retired.begin(),
                                            counters.per_core_retired.end(),
                                            std::uint64_t{0});
  EXPECT_EQ(sum, counters.retired_ops);
}

TEST(PlatformCounters, TakenBranchCostsExtraBubble) {
  auto config = bare_config();
  config.num_cores = 1;
  config.branch_taken_penalty = 2;
  Platform taken(config);
  taken.load_program(compile(R"(
      bra  skip
      nop
  skip:
      halt
  )"));
  const auto taken_result = taken.run(100);

  // Reference executes the same number of cycles minus the redirect
  // penalty: two retired instructions, no redirect.
  Platform fall(config);
  fall.load_program(compile("nop\nhalt\n"));
  const auto fall_result = fall.run(100);
  EXPECT_EQ(taken_result.cycles, fall_result.cycles + 2);
  EXPECT_EQ(taken.counters().core_branch_bubble_cycles,
            fall.counters().core_branch_bubble_cycles + 2);
}

TEST(PlatformCounters, HaltedPlatformReportsAllHalted) {
  Platform platform(bare_config());
  platform.load_program(compile("halt\n"));
  EXPECT_FALSE(platform.all_halted());
  EXPECT_TRUE(platform.run(100).ok());
  EXPECT_TRUE(platform.all_halted());
  for (unsigned c = 0; c < 8; ++c)
    EXPECT_EQ(platform.core_status(c), CoreStatus::kHalted);
}

TEST(PlatformInterrupt, WakesSleepingCoresAndResumesAfterSleep) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      movi r1, 5
      sleep
      movi r2, 7
      halt
  )"));
  auto result = platform.run(1000);
  ASSERT_EQ(result.status, RunResult::Status::kAllAsleep);
  EXPECT_EQ(platform.core_reg(0, 2), 0) << "not yet past the sleep";

  platform.interrupt_all();
  result = platform.run(1000);
  EXPECT_TRUE(result.ok()) << result.to_string();
  for (unsigned c = 0; c < 8; ++c) EXPECT_EQ(platform.core_reg(c, 2), 7);
}

TEST(PlatformInterrupt, BroadcastWakeRestoresLockstep) {
  // Duty cycle: all cores sleep, one external event wakes them together —
  // the tail must broadcast.
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      sleep
      movi r2, 1
      movi r3, 2
      movi r4, 3
      halt
  )"));
  ASSERT_EQ(platform.run(1000).status, RunResult::Status::kAllAsleep);
  const auto broadcasts_before = platform.counters().im_broadcast_groups;
  platform.interrupt_all();
  ASSERT_TRUE(platform.run(1000).ok());
  EXPECT_GE(platform.counters().im_broadcast_groups, broadcasts_before + 4);
}

TEST(PlatformInterrupt, SingleInterruptWakesOnlyThatCore) {
  Platform platform(bare_config());
  platform.load_program(compile(R"(
      sleep
      halt
  )"));
  ASSERT_EQ(platform.run(1000).status, RunResult::Status::kAllAsleep);
  platform.interrupt(3);
  ASSERT_EQ(platform.run(1000).status, RunResult::Status::kAllAsleep);
  EXPECT_EQ(platform.core_status(3), CoreStatus::kHalted);
  EXPECT_EQ(platform.core_status(0), CoreStatus::kSleeping);
}

TEST(PlatformInterrupt, InterruptOnRunningCoreIsNoOp) {
  Platform platform(bare_config());
  platform.load_program(compile("movi r1, 1\nhalt\n"));
  platform.interrupt(0);  // nothing sleeps yet
  EXPECT_TRUE(platform.run(100).ok());
}

TEST(PlatformConfigTest, FewerCoresRunIndependently) {
  for (unsigned cores : {1u, 2u, 4u}) {
    auto config = bare_config();
    config.num_cores = cores;
    Platform platform(config);
    platform.load_program(compile(R"(
        csrr r1, #1
        movi r2, 0x800
        st   [r2], r1
        halt
    )"));
    EXPECT_TRUE(platform.run(1000).ok());
    EXPECT_EQ(platform.dm_read(0x800), cores);
  }
}

TEST(PlatformConfigTest, BlockBankingSelectable) {
  auto config = bare_config(false);
  config.im_line_slots = 0;  // pure block mapping
  Platform platform(config);
  platform.load_program(compile("movi r1, 1\nhalt\n"));
  EXPECT_TRUE(platform.run(100).ok());
}

}  // namespace
}  // namespace ulpsync::sim
