#include "scenario/shard.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/checkpoint_ring.h"
#include "scenario/record.h"
#include "scenario/transport.h"
#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

constexpr util::Magic kBundleMagic = {'U', 'L', 'P', 'S', 'P', 'O', 'L', '\n'};
// Version 3 appended the optional `EnergyRequest` to the spec codec.
// Version 4 retired the optional `burst` knob after `fast_forward`: its
// slot stays on the wire, always absent, so the recorded-run envelope that
// shares the codec keeps its bytes, and a spec that still sets it is
// refused.
constexpr std::uint32_t kBundleVersion = 4;
constexpr std::uint32_t kNoWarmRef = 0xFFFFFFFFu;

// --- bundle --------------------------------------------------------------- --

struct BundlePlan {
  unsigned id = 0;
  std::vector<std::uint64_t> indices;
  std::vector<std::uint32_t> warm_ref;
  std::vector<std::vector<std::uint8_t>> warm_blobs;
};

std::vector<std::uint8_t> serialize_bundle(const BundlePlan& plan,
                                           const std::vector<RunSpec>& specs,
                                           std::uint64_t fingerprint) {
  return util::seal(kBundleMagic, kBundleVersion, [&](util::WireWriter& w) {
    w.u64(fingerprint);
    w.u32(plan.id);
    w.u32(static_cast<std::uint32_t>(plan.indices.size()));
    for (std::size_t i = 0; i < plan.indices.size(); ++i) {
      w.u64(plan.indices[i]);
      w.u32(plan.warm_ref[i]);
      encode_run_spec(w, specs[plan.indices[i]]);
    }
    w.u32(static_cast<std::uint32_t>(plan.warm_blobs.size()));
    for (const auto& blob : plan.warm_blobs) w.blob(blob);
  });
}

/// The sweep job kind (see `sweep_job`).
class SweepJob final : public SpoolJob {
 public:
  SweepJob(SpoolTransport& transport, const SpoolManifest& manifest,
           const Registry& registry, const WorkOptions& options)
      : SpoolJob(manifest),
        transport_(transport),
        record_dir_(options.record_dir),
        engine_(registry, engine_options(transport, options)) {
    if (manifest.campaign) {
      throw std::runtime_error(transport.describe() +
                               " is a campaign spool, not a sweep spool");
    }
    if (!record_dir_.empty()) fs::create_directories(record_dir_);
  }

  std::vector<std::uint64_t> claim(const ClaimedShard& claimed) override {
    bundle_ = parse_bundle_bytes(
        claimed.payload, "shard bundle " + std::to_string(claimed.id) +
                             " from " + transport_.describe());
    // `run` finds a row by its index, so the indices must ascend strictly.
    const auto& indices = bundle_.indices;
    if (bundle_.fingerprint != manifest.fingerprint ||
        bundle_.id != claimed.id ||
        std::adjacent_find(indices.begin(), indices.end(),
                           std::greater_equal<>()) != indices.end()) {
      throw std::runtime_error("shard bundle " + std::to_string(claimed.id) +
                               " does not belong to this spool");
    }
    return indices;
  }

  SpoolRow run(std::uint64_t index) override {
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(bundle_.indices.begin(), bundle_.indices.end(),
                         index) -
        bundle_.indices.begin());
    RunSpec spec = bundle_.specs[k];
    SpoolRow row;
    if (bundle_.warm_ref[k] >= 0) {
      spec.resume_from =
          bundle_.warm_states[static_cast<std::size_t>(bundle_.warm_ref[k])];
      row.warm_resumed = true;
    }
    if (!record_dir_.empty()) {
      // Recording forces the run cold and ring-less (bit-identical rows),
      // so the .evt is the same artifact a scalar recording of this spec
      // would produce; the global index names it.
      spec.record_events_to =
          record_dir_ + "/run-" + std::to_string(index) + ".evt";
    }
    const auto start = std::chrono::steady_clock::now();
    const RunRecord record = engine_.run_one(spec, index);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    row.csv = to_csv_row(record);
    // Cost feedback for the next plan's scheduler; keyed on the bundle's
    // spec (identical to the planner's), not the warm-resume copy.
    row.cost = cost_line(bundle_.specs[k], record.cycles(), wall_seconds);
    return row;
  }

 private:
  static EngineOptions engine_options(SpoolTransport& transport,
                                      const WorkOptions& options) {
    EngineOptions engine_options;
    if (options.ring_stride == 0) return engine_options;
    // Checkpoint rings live next to the spool, so they need one: a remote
    // transport has no shared directory to keep them in.
    if (transport.local_dir().empty()) {
      throw std::runtime_error(
          "checkpoint rings need a filesystem spool "
          "(drop --ring-stride when working over --connect)");
    }
    engine_options.checkpoint_ring = {.dir = transport.local_dir() + "/rings",
                                      .stride = options.ring_stride,
                                      .keep = options.ring_keep};
    return engine_options;
  }

  SpoolTransport& transport_;
  std::string record_dir_;
  Engine engine_;
  ShardBundle bundle_;  ///< the last claim
};

}  // namespace

// --- cost model --------------------------------------------------------------

std::uint64_t spec_cost_key(const RunSpec& spec) {
  return fnv1a64(run_spec_bytes(spec));
}

std::string cost_line(const RunSpec& spec, std::uint64_t cycles,
                      double wall_seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9e", wall_seconds);
  return "cost " + util::hex64(spec_cost_key(spec)) + " " + spec.workload +
         " " + std::to_string(cycles) + " " + buffer;
}

void CostModel::add(std::uint64_t key, const std::string& workload,
                    std::uint64_t cycles, double wall_seconds) {
  SpecCost& spec = by_spec[key];
  spec.wall_seconds += wall_seconds;
  spec.runs += 1;
  WorkloadRate& rate = by_workload[workload];
  rate.wall_seconds += wall_seconds;
  rate.cycles += static_cast<double>(cycles);
  rate.runs += 1;
}

double CostModel::predict(const RunSpec& spec) const {
  // Floor every prediction: a zero-weight unit would let the costed
  // planner park arbitrarily many specs on one shard for free.
  constexpr double kFloorSeconds = 1e-9;
  if (const auto it = by_spec.find(spec_cost_key(spec));
      it != by_spec.end() && it->second.runs > 0) {
    return std::max(kFloorSeconds,
                    it->second.wall_seconds /
                        static_cast<double>(it->second.runs));
  }
  if (const auto it = by_workload.find(spec.workload);
      it != by_workload.end() && it->second.cycles > 0.0) {
    // Seconds-per-simulated-cycle of the workload times the spec's cycle
    // budget: over-predicts early-halting runs but orders a horizon
    // fan-out correctly, which is what shard sizing needs.
    const double rate = it->second.wall_seconds / it->second.cycles;
    return std::max(kFloorSeconds,
                    rate * static_cast<double>(spec.max_cycles));
  }
  return 1.0;  // unknown workload: uniform, like the uncosted planner
}

bool absorb_cost_line(CostModel& model, const std::string& line) {
  std::istringstream fields(line);
  std::string tag, hex, workload;
  std::uint64_t cycles = 0;
  double wall_seconds = 0.0;
  fields >> tag >> hex >> workload >> cycles >> wall_seconds;
  if (fields.fail() || tag != "cost" || hex.size() != 16 || workload.empty() ||
      !(wall_seconds >= 0.0)) {
    return false;
  }
  char* end = nullptr;
  const std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  model.add(key, workload, cycles, wall_seconds);
  return true;
}

CostModel load_cost_model(const std::vector<std::string>& paths) {
  CostModel model;
  const auto absorb_file = [&model](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    std::string line;
    while (std::getline(in, line)) absorb_cost_line(model, line);
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      const std::string costs = path + "/costs";
      if (!fs::is_directory(costs, ec)) continue;
      std::vector<std::string> files;
      for (const auto& entry : fs::directory_iterator(costs)) {
        if (entry.path().extension() == ".cost") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      for (const std::string& file : files) absorb_file(file);
    } else {
      absorb_file(path);
    }
  }
  return model;
}

std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs) {
  util::WireWriter w;
  w.u64(specs.size());
  for (const RunSpec& spec : specs) encode_run_spec(w, spec);
  return fnv1a64(w.bytes());
}

PlanResult plan_spool(const std::string& dir, const std::vector<RunSpec>& specs,
                      const Registry& registry, const SpoolOptions& options) {
  if (specs.empty()) {
    throw std::invalid_argument("plan_spool: empty spec list");
  }
  create_spool_dirs(dir);

  // Scheduling units: each warm group (the engine's rule) stays on one
  // shard so its members share the shipped WarmState; every other spec is
  // a singleton.
  const Engine engine(registry);
  std::vector<std::vector<std::size_t>> units = engine.warm_groups(specs);
  std::vector<bool> grouped(specs.size(), false);
  for (const auto& unit : units) {
    for (const std::size_t index : unit) grouped[index] = true;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!grouped[i]) units.push_back({i});
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });

  const unsigned shard_count = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, options.shards), units.size()));

  // Deterministic greedy balance. Without cost feedback each unit goes to
  // the least-loaded shard by *spec count* (ties to the lowest id), in
  // unit order — the original planner, byte for byte. With a cost model,
  // units are weighed by predicted wall seconds and placed
  // longest-processing-time-first onto the least-*weighted* shard, the
  // classic LPT makespan heuristic.
  const bool costed = !options.costs.empty();
  std::vector<BundlePlan> bundles(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) bundles[s].id = s;
  std::vector<double> weight(shard_count, 0.0);
  std::vector<unsigned> shard_of_unit(units.size(), 0);
  std::vector<double> unit_weight(units.size(), 0.0);
  std::vector<std::size_t> order(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) order[u] = u;
  if (costed) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (const std::size_t index : units[u]) {
        unit_weight[u] += options.costs.predict(specs[index]);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (unit_weight[a] != unit_weight[b]) {
        return unit_weight[a] > unit_weight[b];
      }
      return units[a].front() < units[b].front();
    });
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) {
      unit_weight[u] = static_cast<double>(units[u].size());
    }
  }
  for (const std::size_t u : order) {
    unsigned best = 0;
    for (unsigned s = 1; s < shard_count; ++s) {
      if (weight[s] < weight[best]) best = s;
    }
    shard_of_unit[u] = best;
    weight[best] += unit_weight[u];
  }

  // Capture one WarmState per warm group (the multi-member units) and
  // attach it to the group's shard.
  PlanResult result;
  for (std::size_t u = 0; u < units.size(); ++u) {
    BundlePlan& bundle = bundles[shard_of_unit[u]];
    std::uint32_t ref = kNoWarmRef;
    if (units[u].size() >= 2) {
      const RunSpec& leader = specs[units[u].front()];
      if (const auto state =
              engine.capture_warm_state(leader, *leader.checkpoint_at)) {
        ref = static_cast<std::uint32_t>(bundle.warm_blobs.size());
        bundle.warm_blobs.push_back(serialize_warm_state(*state));
        result.warm_states += 1;
      }
    }
    for (const std::size_t index : units[u]) {
      bundle.indices.push_back(index);
      bundle.warm_ref.push_back(ref);
    }
  }
  // Bundle entries in ascending global-index order (units may interleave).
  for (BundlePlan& bundle : bundles) {
    std::vector<std::size_t> order(bundle.indices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return bundle.indices[a] < bundle.indices[b];
    });
    BundlePlan sorted;
    sorted.id = bundle.id;
    sorted.warm_blobs = std::move(bundle.warm_blobs);
    for (const std::size_t i : order) {
      sorted.indices.push_back(bundle.indices[i]);
      sorted.warm_ref.push_back(bundle.warm_ref[i]);
    }
    bundle = std::move(sorted);
  }

  if (costed) {
    // Heaviest shard first: workers claim queue bundles in name order, so
    // numbering by descending predicted weight starts the long poles
    // before the stragglers (ties keep the original id order).
    std::vector<unsigned> by_weight(shard_count);
    for (unsigned s = 0; s < shard_count; ++s) by_weight[s] = s;
    std::sort(by_weight.begin(), by_weight.end(),
              [&](unsigned a, unsigned b) {
                if (weight[a] != weight[b]) return weight[a] > weight[b];
                return a < b;
              });
    std::vector<BundlePlan> renumbered;
    for (unsigned s = 0; s < shard_count; ++s) {
      BundlePlan bundle = std::move(bundles[by_weight[s]]);
      bundle.id = s;
      renumbered.push_back(std::move(bundle));
    }
    bundles = std::move(renumbered);
  }

  SpoolManifest manifest;
  manifest.fingerprint = spec_fingerprint(specs);
  manifest.specs = specs.size();
  for (const BundlePlan& bundle : bundles) {
    const auto bytes = serialize_bundle(bundle, specs, manifest.fingerprint);
    util::write_file_atomic(
        dir + "/queue/" + shard_name(bundle.id) + ".bundle", bytes);
    manifest.shards.push_back(
        {.id = bundle.id, .specs = bundle.indices.size(),
         .bundle_hash = fnv1a64(bytes)});
  }
  // The manifest is written last: a spool without one is unplanned, never
  // half-planned.
  util::write_file_atomic(dir + "/MANIFEST", spool_manifest_text(manifest));

  result.specs = specs.size();
  result.shards = shard_count;
  result.fingerprint = manifest.fingerprint;
  return result;
}

ShardBundle parse_bundle_bytes(std::span<const std::uint8_t> bytes,
                               const std::string& what,
                               bool load_warm_states) {
  util::WireReader r = util::unseal(bytes, kBundleMagic, kBundleVersion, what);
  ShardBundle bundle;
  bundle.fingerprint = r.u64();
  bundle.id = r.u32();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    bundle.indices.push_back(r.u64());
    const std::uint32_t ref = r.u32();
    bundle.warm_ref.push_back(ref == kNoWarmRef ? -1
                                                : static_cast<std::int32_t>(ref));
    bundle.specs.push_back(decode_run_spec(r));
  }
  const std::uint32_t warm_count = r.u32();
  for (std::uint32_t i = 0; i < warm_count; ++i) {
    const std::vector<std::uint8_t> blob = r.blob();
    if (load_warm_states) {
      bundle.warm_states.push_back(
          std::make_shared<WarmState>(deserialize_warm_state(blob)));
    }
  }
  for (const std::int32_t ref : bundle.warm_ref) {
    if (ref >= static_cast<std::int32_t>(warm_count)) {
      throw std::invalid_argument(what +
                                  ": warm-state reference out of range");
    }
  }
  return bundle;
}

std::unique_ptr<SpoolJob> sweep_job(SpoolTransport& transport,
                                    const SpoolManifest& manifest,
                                    const Registry& registry,
                                    const WorkOptions& options) {
  return std::make_unique<SweepJob>(transport, manifest, registry, options);
}

WorkReport work_spool(const std::string& dir, const Registry& registry,
                      const WorkOptions& options) {
  FsTransport transport(dir);
  SweepJob job(transport, read_spool_manifest(transport), registry, options);
  return drain_spool(transport, job, options.worker_id, options.resume,
                     options.max_shards, /*jobs=*/1);
}

}  // namespace ulpsync::scenario
