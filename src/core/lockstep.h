#pragma once

/// Lockstep residency analyzer: measures how synchronized the cores
/// actually are — the quantity the paper's technique improves. Used by the
/// evaluation harnesses to explain *why* the synchronized design wins
/// (broadcast fraction up, PC spread down), and by tests to assert lockstep
/// is restored after each region.
///
/// The analyzer registers its metrics block as the platform's lockstep
/// sink (`sim::Platform::set_lockstep_sink`), and the platform accumulates
/// the per-cycle observations itself, so measuring lockstep does not
/// suppress the host-side region executor the way a per-cycle observer
/// would. A naive tick observes in O(active cores). The region executor
/// keeps a count of active cores per IM slot, so each PC change is O(1),
/// and adds its cycles to the sink once per region; a straight-line step
/// adds its cycles in one add. The accumulated values are bit-identical
/// either way.

#include "core/lockstep_metrics.h"
#include "sim/platform.h"

namespace ulpsync::core {

class LockstepAnalyzer {
 public:
  using Metrics = LockstepMetrics;

  /// Registers this analyzer's metrics block as the platform's lockstep
  /// sink. The analyzer must outlive every subsequent tick of `platform`.
  void attach(sim::Platform& platform) {
    platform.set_lockstep_sink(&metrics_);
  }

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  void reset() { metrics_ = {}; }
  /// Resumes accumulation from previously captured metrics — used by
  /// runs resumed from a checkpoint-ring entry or a batch-lane boundary, so
  /// a resumed run's lockstep numbers equal an uninterrupted run's.
  void restore(const Metrics& metrics) { metrics_ = metrics; }

 private:
  Metrics metrics_;
};

}  // namespace ulpsync::core
