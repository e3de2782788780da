#pragma once

/// Configuration of the simulated multi-core platform (paper Section III).
///
/// Defaults model the paper's system: 8 custom 16-bit RISC cores, a shared
/// 96 kB instruction memory in 8 banks (4096 instruction slots per bank,
/// block-mapped), a shared 64 kB data memory in 16 banks (2048 16-bit words
/// per bank, block-mapped), broadcasting crossbars, and the hardware
/// synchronizer. The two synthesized designs of Section V are expressed as
/// feature sets: `SyncFeatures::enabled()` (the improved design) and
/// `SyncFeatures::disabled()` (the ulpmc-bank baseline of [4]).

#include <cstdint>
#include <string>

namespace ulpsync::sim {

/// The paper's proposed enhancements, individually toggleable (ablation E7).
struct SyncFeatures {
  /// Hardware synchronizer present; SINC/SDEC are honored. When false,
  /// executing SINC/SDEC traps (the baseline runs uninstrumented kernels).
  bool hardware_synchronizer = true;
  /// Enhanced D-Xbar serving policy: on a DM bank conflict among cores with
  /// equal program counters, hold the served cores until all are served.
  bool dxbar_pc_policy = true;
  /// Per-core PC comparators in the I-Xbar: a partially matching subset of
  /// a conflicting fetch group can share one broadcast bank read. The
  /// baseline of [4] broadcasts only when the *whole* group coincides and
  /// otherwise falls back to sequential unicast service — it lacks the
  /// cross-core PC comparison this paper introduces.
  bool ixbar_partial_broadcast = true;

  friend bool operator==(const SyncFeatures&, const SyncFeatures&) = default;

  /// All enhancements on: the paper's improved design.
  [[nodiscard]] static SyncFeatures enabled() { return {true, true, true}; }
  /// All enhancements off: the ulpmc-bank baseline of [4].
  [[nodiscard]] static SyncFeatures disabled() { return {false, false, false}; }
};

/// Conflict-service order of the crossbars. The paper's crossbars serve
/// conflicting cores "in sequence" (fixed index priority); oldest-first is
/// provided for ablation studies.
enum class ArbitrationPolicy : std::uint8_t {
  kFixedPriority,  ///< lowest core index wins
  kOldestFirst,    ///< longest-waiting requester wins
  kRoundRobin,     ///< rotating priority pointer (advances every cycle)
};

/// Most IM banks a platform may have: the I-Xbar holds its fetch set as a
/// 64-bit mask of occupied banks, one 64-bit core mask per bank.
inline constexpr unsigned kMaxImBanks = 64;

/// Geometry and feature set of one simulated platform instance. Defaults
/// reproduce the paper's 8-core system (see the file comment).
struct PlatformConfig {
  /// 1..64. Core counts above 8 require `features.hardware_synchronizer`
  /// off — the checkpoint word has 8 identity flags (see `validate`).
  unsigned num_cores = 8;
  unsigned im_banks = 8;  ///< 1..kMaxImBanks
  unsigned im_bank_slots = 4096;  ///< 96 kB / 24-bit instruction / 8 banks
  /// IM bank mapping: lines of `im_line_slots` consecutive instructions
  /// rotate across banks (bank = (pc / line) % banks). Diverged cores
  /// therefore spread across banks in proportion to the span of the code
  /// they are in — short loops serialize on one bank, long ones overlap
  /// less. 0 selects pure block mapping (bank = pc / bank_slots).
  unsigned im_line_slots = 16;
  unsigned dm_banks = 16;
  unsigned dm_bank_words = 2048;  ///< 64 kB / 16-bit word / 16 banks
  SyncFeatures features = SyncFeatures::enabled();
  /// Crossbar broadcast support from [4]; both designs of the paper have
  /// it. Turning these off models the pre-[4] architecture (ablation).
  bool im_fetch_broadcast = true;
  bool dm_read_broadcast = true;
  /// Reset value of the cores' Rsync CSR: base DM address of the array of
  /// checkpoint words.
  std::uint16_t sync_array_base = 0;

  /// Base cycles per instruction. The cores are phased fetch/execute
  /// machines (ULP, no fetch/execute overlap): every instruction occupies
  /// the core for `base_cpi` cycles, of which one uses the IM port. With
  /// the default 2, eight lockstep cores sustain the paper's 4.0 Ops/cycle
  /// ceiling and a fully serialized single IM bank bounds the diverged
  /// baseline near 2.0 — the two band edges of Section V-B.
  unsigned base_cpi = 2;
  /// Additional pipeline bubble after a taken branch/jump (no branch
  /// predictor; the fetch in flight is squashed). The core stays clocked.
  unsigned branch_taken_penalty = 0;
  /// Clock-gate release ramp after a sleep wake-up (check-out resume);
  /// the core is still gated during the ramp.
  unsigned wakeup_penalty = 2;
  /// Service order on IM/DM bank conflicts.
  ArbitrationPolicy arbitration = ArbitrationPolicy::kRoundRobin;
  /// Core release stagger out of reset: core i starts fetching at cycle
  /// i * start_stagger_cycles. Both designs boot staggered (cores are
  /// released sequentially); only the synchronized design re-aligns, at its
  /// first check-out point. Setting 0 models an idealized common release.
  unsigned start_stagger_cycles = 3;
  /// Host-side simulation speed (not a modeled hardware feature): lets
  /// `Platform::run` hand the fetch regime (synchronizer idle, every active
  /// core Ready) to its region executor, which runs arbitrated cycles
  /// without the generic phase machinery and retires whole conflict-free
  /// straight-line runs in one step. Results are bit-identical to the
  /// cycle-by-cycle loop; `false` forces that naive loop, to cross-check
  /// the equivalence. Snapshots restore into either setting.
  bool fast_forward = true;

  friend bool operator==(const PlatformConfig&, const PlatformConfig&) = default;

  /// Validates the configuration; returns an empty string when it is
  /// runnable, else a description of the first problem. `Platform` rejects
  /// invalid configurations with std::invalid_argument.
  [[nodiscard]] std::string validate() const;

  /// Total instruction-memory capacity in instruction slots.
  [[nodiscard]] unsigned im_slots() const { return im_banks * im_bank_slots; }
  /// Total data-memory capacity in 16-bit words.
  [[nodiscard]] unsigned dm_words() const { return dm_banks * dm_bank_words; }

  /// Paper's improved design ("with synchronizer").
  [[nodiscard]] static PlatformConfig with_synchronizer() {
    return PlatformConfig{};
  }
  /// Paper's baseline design ("w/o synchronizer", the architecture of [4]).
  [[nodiscard]] static PlatformConfig without_synchronizer() {
    PlatformConfig config;
    config.features = SyncFeatures::disabled();
    return config;
  }
};

}  // namespace ulpsync::sim
