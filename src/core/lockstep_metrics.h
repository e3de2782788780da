#pragma once

/// Lockstep residency metrics, decoupled from the analyzer that presents
/// them so `sim::Platform` can maintain them natively.
///
/// Historically the `core::LockstepAnalyzer` observed the platform through
/// the per-cycle observer hook, which suppressed the host-side fast paths
/// for the whole run. The metrics are sums of per-cycle contributions,
/// though, and a cycle's contribution depends only on its (ready cores,
/// live cores, distinct PCs) triple: cycles that share a triple can be
/// added at once, in any order. The platform therefore accepts a
/// `LockstepMetrics` sink (`sim::Platform::set_lockstep_sink`) and fills
/// it itself. A naive tick adds one cycle in O(active cores). The region
/// executor tracks the distinct-PC count with per-IM-slot core counts, at
/// O(1) per PC change, bins its cycles by that count and adds the bins
/// once per region. A straight-line step adds all its cycles in one add.
/// The values are bit-identical to the per-cycle observer's.

#include <array>
#include <cstdint>

namespace ulpsync::core {

/// Per-cycle lockstep residency totals (see the file comment). The
/// histogram clamps at 8 distinct PCs — the paper platform's core count —
/// so wider platforms accumulate every ≥8-way spread in the last bin.
struct LockstepMetrics {
  std::uint64_t observed_cycles = 0;
  /// Cycles in which every live (non-halted, non-sleeping) core was ready
  /// at one common PC.
  std::uint64_t full_lockstep_cycles = 0;
  /// Histogram of the number of distinct PCs among ready cores per cycle
  /// (index clamped to 8; index 0 = no core ready).
  std::array<std::uint64_t, 9> pc_group_histogram{};

  [[nodiscard]] double lockstep_fraction() const {
    return observed_cycles == 0
               ? 0.0
               : static_cast<double>(full_lockstep_cycles) /
                     static_cast<double>(observed_cycles);
  }
  /// Mean distinct-PC group count over cycles with at least one ready core.
  [[nodiscard]] double mean_pc_groups() const;

  friend bool operator==(const LockstepMetrics&,
                         const LockstepMetrics&) = default;
};

}  // namespace ulpsync::core
