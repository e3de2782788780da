#include "sim/config.h"

#include "core/synchronizer.h"
#include "sim/counters.h"

namespace ulpsync::sim {

std::string PlatformConfig::validate() const {
  if (num_cores < 1 || num_cores > EventCounters::kMaxCores) {
    return "num_cores must be in [1, " +
           std::to_string(EventCounters::kMaxCores) + "], got " +
           std::to_string(num_cores);
  }
  if (features.hardware_synchronizer && num_cores > core::Synchronizer::kMaxCores) {
    return "the hardware synchronizer supports at most " +
           std::to_string(core::Synchronizer::kMaxCores) +
           " cores (the checkpoint word has that many identity flags); run " +
           std::to_string(num_cores) +
           " cores with features.hardware_synchronizer off";
  }
  if (im_banks < 1 || im_bank_slots < 1)
    return "instruction memory needs at least one bank and one slot per bank";
  if (im_banks > kMaxImBanks) {
    return "im_banks must be at most " + std::to_string(kMaxImBanks) +
           ", got " + std::to_string(im_banks);
  }
  if (dm_banks < 1 || dm_bank_words < 1)
    return "data memory needs at least one bank and one word per bank";
  if (base_cpi < 1) return "base_cpi must be at least 1";
  if (arbitration > ArbitrationPolicy::kRoundRobin) {
    return "unknown arbitration policy " +
           std::to_string(static_cast<unsigned>(arbitration));
  }
  return {};
}

}  // namespace ulpsync::sim
