#pragma once

/// Lockstep residency metrics, decoupled from the analyzer that presents
/// them so `sim::Platform` can maintain them natively.
///
/// Historically the `core::LockstepAnalyzer` observed the platform through
/// the per-cycle observer hook, which suppressed the host-side fast paths
/// for the whole run. The metrics are sums of per-cycle contributions,
/// though, and a cycle contributes one observed cycle, plus one
/// full-lockstep cycle when at least two cores are live and every one of
/// them is ready at one PC: cycles that share that flag can be added at
/// once, in any order. The platform therefore accepts a `LockstepMetrics`
/// sink (`sim::Platform::set_lockstep_sink`) and fills it itself. A naive
/// tick adds one cycle after one pass over the active cores. The region
/// executor decides each cycle with one compare of its per-slot core
/// masks, counts its cycles locally and adds them once per region. A
/// straight-line step adds all its cycles in one add. The values are
/// bit-identical to the per-cycle observer's.

#include <cstdint>

namespace ulpsync::core {

/// Per-cycle lockstep residency totals (see the file comment).
struct LockstepMetrics {
  /// Cycles observed while the sink was attached.
  std::uint64_t observed_cycles = 0;
  /// Cycles in which every live (non-halted, non-sleeping) core was ready
  /// at one common PC, with at least two such cores.
  std::uint64_t full_lockstep_cycles = 0;

  /// Share of observed cycles in full lockstep (0 before any cycle).
  [[nodiscard]] double lockstep_fraction() const {
    return observed_cycles == 0
               ? 0.0
               : static_cast<double>(full_lockstep_cycles) /
                     static_cast<double>(observed_cycles);
  }

  friend bool operator==(const LockstepMetrics&,
                         const LockstepMetrics&) = default;
};

}  // namespace ulpsync::core
