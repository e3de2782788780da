#pragma once

/// A `RunSpec` is one fully resolved, independently executable simulation
/// run: which workload, with which parameters, on which platform design.
/// Specs are what `scenario::Matrix` expands to and what the sweep engine
/// consumes; every spec owns its platform, so any set of specs can execute
/// in parallel.

#include <cstdint>
#include <optional>
#include <string>

#include "scenario/workload.h"
#include "sim/config.h"

namespace ulpsync::util {
class WireReader;  // util/wire.h
class WireWriter;
}  // namespace ulpsync::util

namespace ulpsync::scenario {

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
  /// Cycle budget. Specs that differ only in it and in `energy` share one
  /// platform run in the engine (`Engine::run_groups`), harvested at each
  /// budget — records stay bit-identical to separate runs.
  std::uint64_t max_cycles = 500'000'000;
  /// When non-empty, the engine records the run's complete external-event
  /// schedule and writes the recorded-run envelope (`scenario/replay.h`)
  /// to this path. Recording forces a cold, ring-less run of its own —
  /// shared runs, checkpoint rings and batch lanes are bit-identical host
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
/// platform overrides, the budget) plus the energy request (it shapes the
/// record's CSV bytes); host-side plumbing (`record_events_to`, the cohort
/// tag) is deliberately not on the wire. Two retired knobs (the `burst`
/// switch and the warm-up prefix end) keep their slots as always-absent
/// bytes, so older images keep their bytes and identities; an image that
/// sets one is refused.
void encode_run_spec(util::WireWriter& w, const RunSpec& spec);
/// Decodes `encode_run_spec` output. Throws std::invalid_argument on
/// truncation or out-of-range fields.
[[nodiscard]] RunSpec decode_run_spec(util::WireReader& r);
/// `encode_run_spec`'s bytes as a string: a spec identity usable as a map
/// key.
[[nodiscard]] std::string run_spec_bytes(const RunSpec& spec);

}  // namespace ulpsync::scenario
