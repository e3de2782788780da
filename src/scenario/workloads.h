#pragma once

/// Built-in workloads and the helper for user-assembled TR16 programs.
///
/// The built-in set registered by `register_builtin_workloads`:
///  * "mrpfltr", "sqrt32", "mrpdln" — the three paper kernels with their
///    hand-placed synchronization points (kernels::Benchmark);
///  * "mrpfltr.auto", "sqrt32.auto", "mrpdln.auto" — the same kernels with
///    the instrumented variant produced by the automatic CFG pass
///    (core::auto_instrument) from the plain source;
///  * "clip8" — the quickstart kernel: per-channel threshold clipping, one
///    hand-bracketed data-dependent region;
///  * "bandcount", "bandcount.auto" — the custom-kernel example: amplitude
///    band histogram (a data-dependent branch cascade), hand- and
///    auto-instrumented;
///  * "streaming" — the duty-cycled window monitor; its `windowed_drive()`
///    feeds acquisition windows and wakes the cores by external interrupt;
///  * "sleepgen" (+ fixed-width aliases "sleepgen16/32/64") — the
///    wide-platform duty-cycled scaling workload: core count from
///    `params.num_channels` up to 64, one private DM bank per core, a
///    straight-line per-sample feature chain that exercises the region
///    executor's straight-line steps. Use a synchronizer-less design (DesignVariant::xbar_only)
///    above 8 cores.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.h"
#include "scenario/workload.h"

namespace ulpsync::scenario {

/// Declarative description of a user-assembled TR16 workload.
struct AsmWorkloadDesc {
  std::string name;
  /// TR16 source. Lines starting with the `!sync ` marker are kept (marker
  /// stripped) in the instrumented variant and dropped in the plain one —
  /// the same single-source convention as the paper kernels
  /// (kernels::preprocess_sync_markers).
  std::string source;
  unsigned num_cores = 8;
  /// When true the instrumented variant is produced by the automatic
  /// instrumentation pass on the plain program instead of the markers.
  bool auto_instrument = false;
  /// Host-side input loader (required).
  std::function<void(sim::Platform&, const WorkloadParams&)> load;
  /// Golden-reference check; empty return = success. Optional (no check).
  std::function<std::string(const sim::Platform&, const WorkloadParams&)>
      verify;
  /// Post-run output harvest for `RunRecord::extra`. Optional.
  std::function<std::vector<std::pair<std::string, std::string>>(
      const sim::Platform&, const WorkloadParams&)>
      report;
};

/// Builds a workload from the description. Throws std::runtime_error when
/// assembly or auto-instrumentation fails, or when `params.num_channels`
/// disagrees with `desc.num_cores` — a fixed desc cannot be resized by a
/// Matrix core-count axis, and running it on a mismatched platform would
/// silently mislabel the records.
[[nodiscard]] std::shared_ptr<const Workload> make_asm_workload(
    const AsmWorkloadDesc& desc, const WorkloadParams& params);

/// Registers `desc` as a factory under `desc.name`. The desc is fixed, so
/// specs must keep `params.num_channels == desc.num_cores` (violations
/// surface as "error" records). For a workload that should respond to
/// Matrix axes (core count, samples), use the builder overload.
void register_asm_workload(Registry& registry, AsmWorkloadDesc desc);

/// Registers a workload whose desc is rebuilt from each spec's params —
/// the hook for sweepable user workloads (e.g. emit the sample count into
/// the source and set `num_cores` from `params.num_channels`).
void register_asm_workload(
    Registry& registry, std::string name,
    std::function<AsmWorkloadDesc(const WorkloadParams&)> build);

/// Registers the built-in workload set described above.
void register_builtin_workloads(Registry& registry);

/// Number of synchronization points (SINC instructions) in a program —
/// the region count the instrumentation experiments compare.
[[nodiscard]] unsigned count_sync_points(const assembler::Program& program);

}  // namespace ulpsync::scenario
