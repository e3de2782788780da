#pragma once

/// A `RunSpec` is one fully resolved, independently executable simulation
/// run: which workload, with which parameters, on which platform design.
/// Specs are what `scenario::Matrix` expands to and what the sweep engine
/// consumes; every spec owns its platform, so any set of specs can execute
/// in parallel.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "scenario/workload.h"
#include "sim/config.h"

namespace ulpsync::util {
class WireReader;  // util/wire.h
class WireWriter;
}  // namespace ulpsync::util

namespace ulpsync::scenario {

struct WarmState;  // scenario/engine.h

/// One platform design point: a display label plus the feature set. The
/// paper's two synthesized designs are the common cases; ablations build
/// their own variants from individual `SyncFeatures` toggles.
struct DesignVariant {
  std::string label;
  sim::SyncFeatures features;

  /// "w/o synchronizer" — the baseline architecture of [4].
  [[nodiscard]] static DesignVariant baseline() {
    return {"w/o synchronizer", sim::SyncFeatures::disabled()};
  }
  /// "with synchronizer" — the paper's improved design.
  [[nodiscard]] static DesignVariant synchronized() {
    return {"with synchronizer", sim::SyncFeatures::enabled()};
  }
  /// Crossbar enhancements without the hardware synchronizer — the design
  /// point for platforms wider than the synchronizer's 8-core ceiling
  /// (e.g. the 16/32/64-core scaling workloads).
  [[nodiscard]] static DesignVariant xbar_only() {
    return {"xbar-only", sim::SyncFeatures{false, true, true}};
  }
};

/// Identifies which patient of which cohort a spec was fanned out for.
/// Purely informational: the patient's actual physiology is already baked
/// into `params.generator` by the cohort expansion, so execution ignores
/// the tag and CSV bytes stay identical whether a spec arrived via
/// `Matrix::cohort`, was hand-built, or round-tripped through a shard
/// bundle (the tag is not serialized).
struct CohortTag {
  std::uint64_t seed = 0;      ///< master cohort seed
  std::uint64_t patient = 0;   ///< patient id within the cohort
  std::uint64_t patients = 0;  ///< cohort size
};

/// Request for a per-record energy report: which per-event energy
/// calibration to charge (`power::EnergyParams` variant) and which
/// voltage/frequency operating point to scale the run's per-cycle energies
/// to. Purely derived output — the request never influences the simulation
/// itself (counters, traces, snapshots are bit-identical with or without
/// it), it only adds the `op_*`/`power_*`/`energy_per_op_pj` columns to the
/// record. It *is* serialized in shard bundles and recorded-run envelopes,
/// because the record's CSV bytes depend on it.
struct EnergyRequest {
  /// Which `power::EnergyParams` calibration to charge. `kAuto` follows
  /// the spec's design (synchronized() with the hardware synchronizer,
  /// baseline() without) — the pairing the paper's Table I calibrates.
  enum class Params : std::uint8_t { kAuto = 0, kBaseline = 1, kSynchronized = 2 };
  Params params = Params::kAuto;
  /// Operating clock in MHz; 0 selects the scaling model's nominal
  /// maximum (83.33 MHz for the paper's 12 ns constraint).
  double f_mhz = 0.0;
  /// Supply voltage; 0 selects the lowest supply sustaining `f_mhz`
  /// (paper Section V-A voltage scaling).
  double voltage = 0.0;
};

/// One fully resolved simulation run (see the file comment).
struct RunSpec {
  std::string workload;  ///< registry name
  WorkloadParams params;
  /// Set when this spec is one patient of a cohort fan-out (see CohortTag).
  std::optional<CohortTag> cohort;
  DesignVariant design = DesignVariant::synchronized();
  /// Overrides of the workload's base platform configuration; empty keeps
  /// the workload's (i.e. the paper's) defaults.
  std::optional<sim::ArbitrationPolicy> arbitration;
  std::optional<unsigned> im_line_slots;  ///< 0 = pure block mapping
  /// Per-record energy report request (see `EnergyRequest`); unset keeps
  /// the record's power columns empty.
  std::optional<EnergyRequest> energy;
  /// Host-simulation override of `sim::PlatformConfig::fast_forward` (the
  /// region executor; results are bit-identical either way, so this only
  /// matters to equivalence tests and the perf harness). Unset keeps the
  /// platform default (on). Not serialized with the record.
  std::optional<bool> fast_forward;
  std::uint64_t max_cycles = 500'000'000;
  /// End of the deterministic warm-up prefix (in cycles). When several
  /// specs of one sweep share the same simulation up to this cycle (one of
  /// `Engine::warm_groups`), the engine runs the warm-up once, snapshots
  /// it, and resumes every member from the saved state — results stay
  /// bit-identical to cold runs. Unset = no sharing. Not serialized with
  /// the record.
  std::optional<std::uint64_t> checkpoint_at;
  /// Explicit warm state to resume from (overrides `checkpoint_at`
  /// grouping). The state must have been captured on an identically
  /// configured run of the same workload; a mismatch surfaces as an
  /// "error" record. Not serialized with the record.
  std::shared_ptr<const WarmState> resume_from;
  /// When non-empty, the engine records the run's complete external-event
  /// schedule and writes the recorded-run envelope (`scenario/replay.h`)
  /// to this path. Recording forces a cold, ring-less run — warm starts,
  /// checkpoint rings and batch lanes are bit-identical host
  /// optimizations, so the recorded artifact (and the record) is the same
  /// either way. Not serialized with the record or in shard bundles
  /// (workers derive per-run paths from `WorkOptions::record_dir`).
  std::string record_events_to;

  /// A design runs instrumented code exactly when it has the synchronizer
  /// hardware (SINC/SDEC trap otherwise).
  [[nodiscard]] bool with_synchronizer() const {
    return design.features.hardware_synchronizer;
  }
};

/// Stable wire encoding of one RunSpec — the codec shard bundles and the
/// recorded-run envelope (scenario/replay.h) store specs with, and the
/// identity the warm-group, batch-group and cost keys derive from.
/// Serializes the execution-relevant fields (workload, params, design,
/// platform overrides, budgets) plus the energy request (it shapes the
/// record's CSV bytes); host-side plumbing (`resume_from`,
/// `record_events_to`, the cohort tag) is deliberately not on the wire.
void encode_run_spec(util::WireWriter& w, const RunSpec& spec);
/// Decodes `encode_run_spec` output. Throws std::invalid_argument on
/// truncation or out-of-range fields.
[[nodiscard]] RunSpec decode_run_spec(util::WireReader& r);
/// `encode_run_spec`'s bytes as a string: a spec identity usable as a map
/// key.
[[nodiscard]] std::string run_spec_bytes(const RunSpec& spec);

}  // namespace ulpsync::scenario
