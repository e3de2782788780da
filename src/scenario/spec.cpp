#include "scenario/spec.h"

#include <bit>
#include <stdexcept>

#include "util/wire.h"

namespace ulpsync::scenario {

// Everything that influences a run is serialized, including the
// host-simulation overrides and `checkpoint_at` that RunRecord
// serialization deliberately drops — a shard bundle must reproduce the
// spec exactly, not just label it.

void encode_run_spec(util::WireWriter& w, const RunSpec& spec) {
  w.str(spec.workload);
  const WorkloadParams& p = spec.params;
  w.u32(p.num_channels);
  w.u32(p.samples);
  w.u32(p.l1_half);
  w.u32(p.l2_half);
  w.u32(p.scale_small);
  w.u32(p.scale_large);
  w.u16(static_cast<std::uint16_t>(p.threshold));
  w.u32(p.refractory);
  for (const std::int16_t delta : p.per_core_threshold_delta) {
    w.u16(static_cast<std::uint16_t>(delta));
  }
  const auto& g = p.generator;
  for (const double value :
       {g.sample_rate_hz, g.heart_rate_bpm, g.rr_jitter_fraction,
        g.amplitude_lsb, g.baseline_wander_lsb, g.baseline_wander_hz,
        g.noise_lsb, g.artifact_rate_hz, g.artifact_lsb, g.dropout_rate_hz,
        g.dropout_s}) {
    w.u64(std::bit_cast<std::uint64_t>(value));
  }
  w.u64(g.seed);
  w.str(spec.design.label);
  w.boolean(spec.design.features.hardware_synchronizer);
  w.boolean(spec.design.features.dxbar_pc_policy);
  w.boolean(spec.design.features.ixbar_partial_broadcast);
  w.boolean(spec.arbitration.has_value());
  if (spec.arbitration) w.u8(static_cast<std::uint8_t>(*spec.arbitration));
  w.boolean(spec.im_line_slots.has_value());
  if (spec.im_line_slots) w.u32(*spec.im_line_slots);
  w.boolean(spec.fast_forward.has_value());
  if (spec.fast_forward) w.boolean(*spec.fast_forward);
  w.boolean(false);  // the retired `burst` knob: always absent
  w.u64(spec.max_cycles);
  w.boolean(spec.checkpoint_at.has_value());
  if (spec.checkpoint_at) w.u64(*spec.checkpoint_at);
  w.boolean(spec.energy.has_value());
  if (spec.energy) {
    w.u8(static_cast<std::uint8_t>(spec.energy->params));
    w.u64(std::bit_cast<std::uint64_t>(spec.energy->f_mhz));
    w.u64(std::bit_cast<std::uint64_t>(spec.energy->voltage));
  }
}

RunSpec decode_run_spec(util::WireReader& r) {
  RunSpec spec;
  spec.workload = r.str();
  WorkloadParams& p = spec.params;
  p.num_channels = r.u32();
  p.samples = r.u32();
  p.l1_half = r.u32();
  p.l2_half = r.u32();
  p.scale_small = r.u32();
  p.scale_large = r.u32();
  p.threshold = static_cast<std::int16_t>(r.u16());
  p.refractory = r.u32();
  for (std::int16_t& delta : p.per_core_threshold_delta) {
    delta = static_cast<std::int16_t>(r.u16());
  }
  auto& g = p.generator;
  for (double* value :
       {&g.sample_rate_hz, &g.heart_rate_bpm, &g.rr_jitter_fraction,
        &g.amplitude_lsb, &g.baseline_wander_lsb, &g.baseline_wander_hz,
        &g.noise_lsb, &g.artifact_rate_hz, &g.artifact_lsb,
        &g.dropout_rate_hz, &g.dropout_s}) {
    *value = std::bit_cast<double>(r.u64());
  }
  g.seed = r.u64();
  spec.design.label = r.str();
  spec.design.features.hardware_synchronizer = r.boolean();
  spec.design.features.dxbar_pc_policy = r.boolean();
  spec.design.features.ixbar_partial_broadcast = r.boolean();
  if (r.boolean()) {
    const std::uint8_t policy = r.u8();
    if (policy > static_cast<std::uint8_t>(sim::ArbitrationPolicy::kRoundRobin)) {
      throw std::invalid_argument("run spec: bad arbitration policy");
    }
    spec.arbitration = static_cast<sim::ArbitrationPolicy>(policy);
  }
  if (r.boolean()) spec.im_line_slots = r.u32();
  if (r.boolean()) spec.fast_forward = r.boolean();
  if (r.boolean())
    throw std::invalid_argument("run spec: sets the retired burst knob");
  spec.max_cycles = r.u64();
  if (r.boolean()) spec.checkpoint_at = r.u64();
  if (r.boolean()) {
    EnergyRequest request;
    const std::uint8_t params = r.u8();
    if (params > static_cast<std::uint8_t>(EnergyRequest::Params::kSynchronized)) {
      throw std::invalid_argument("run spec: bad energy params variant");
    }
    request.params = static_cast<EnergyRequest::Params>(params);
    request.f_mhz = std::bit_cast<double>(r.u64());
    request.voltage = std::bit_cast<double>(r.u64());
    spec.energy = request;
  }
  return spec;
}

std::string run_spec_bytes(const RunSpec& spec) {
  util::WireWriter w;
  encode_run_spec(w, spec);
  return {w.bytes().begin(), w.bytes().end()};
}

}  // namespace ulpsync::scenario
