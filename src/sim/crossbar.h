#pragma once

/// The crossbar conflict rules for one bank, as pure functions of the
/// bank's requesters held in a 64-bit core mask (bit i = core i): the
/// winner rule both crossbars share, the I-Xbar's served set and the
/// same-PC scan `tick()` feeds it, and the D-Xbar's served set and
/// policy-group pick. `Platform::tick()` and the
/// region executor both arbitrate through them, so no two paths can
/// disagree on who is served.

#include <bit>
#include <cstdint>

#include "sim/config.h"

namespace ulpsync::sim {

/// Which core of a bank's `requesters` (nonzero) wins a conflict. Fixed
/// priority (the paper's "served in sequence"): the lowest index.
/// Round-robin: the lowest index at or after `rr_pointer` (< 64), wrapping
/// to the lowest. Oldest-first: the largest `stall_age(core)`, ties to the
/// lower index.
template <typename StallAge>
[[nodiscard]] unsigned conflict_winner(std::uint64_t requesters,
                                       ArbitrationPolicy policy,
                                       unsigned rr_pointer,
                                       StallAge stall_age) {
  if (policy == ArbitrationPolicy::kRoundRobin) {
    const std::uint64_t at_or_after = requesters & (~std::uint64_t{0} << rr_pointer);
    return static_cast<unsigned>(
        std::countr_zero(at_or_after != 0 ? at_or_after : requesters));
  }
  auto winner = static_cast<unsigned>(std::countr_zero(requesters));
  if (policy == ArbitrationPolicy::kOldestFirst) {
    auto oldest = stall_age(winner);
    for (std::uint64_t rest = requesters & (requesters - 1); rest != 0;
         rest &= rest - 1) {
      const auto core = static_cast<unsigned>(std::countr_zero(rest));
      const auto age = stall_age(core);
      if (age > oldest) {
        oldest = age;
        winner = core;
      }
    }
  }
  return winner;
}

/// The cores of `requesters` whose PC (`pc_of`) equals `core`'s: a scan of
/// one bank's requesters. `tick()` answers `fetch_served`'s `at_pc` with
/// it; the region executor keeps one core mask per program slot instead.
template <typename PcOf>
[[nodiscard]] std::uint64_t requesters_at_pc(std::uint64_t requesters,
                                             unsigned core, PcOf pc_of) {
  const auto pc = pc_of(core);
  std::uint64_t same = 0;
  for (std::uint64_t rest = requesters; rest != 0; rest &= rest - 1) {
    const auto other = static_cast<unsigned>(std::countr_zero(rest));
    same |= std::uint64_t{pc_of(other) == pc} << other;
  }
  return same;
}

/// The cores of one IM bank's `requesters` (nonzero) that this cycle's
/// bank read serves. `at_pc(core)` is a core mask holding every requester
/// at `core`'s PC (it may hold other cores too), so `same`, the requesters
/// at the conflict winner's PC, is one AND. With fetch broadcast on, the
/// read reaches all of `same` when per-core PC comparators exist
/// (`ixbar_partial_broadcast`) or `same` is every requester; otherwise only
/// the lowest core of `same`, which need not be the winner. A lone
/// requester is simply served.
template <typename StallAge, typename AtPc>
[[nodiscard]] std::uint64_t fetch_served(std::uint64_t requesters,
                                         const PlatformConfig& config,
                                         unsigned rr_pointer,
                                         StallAge stall_age, AtPc at_pc) {
  if ((requesters & (requesters - 1)) == 0) return requesters;
  const std::uint64_t same =
      requesters & at_pc(conflict_winner(requesters, config.arbitration,
                                         rr_pointer, stall_age));
  const bool broadcast =
      config.im_fetch_broadcast &&
      (config.features.ixbar_partial_broadcast || same == requesters);
  return broadcast ? same : same & (~same + 1);
}

/// The cores of one DM bank's `requesters` (nonzero) that this cycle's bank
/// access serves. A lone requester is served. Otherwise the conflict winner
/// is served alone when it stores or loads may not `broadcast`, and every
/// load at the winner's address (`addr_of`) is served together when they
/// may. `served == requesters` is exactly the conflict-free cycle.
template <typename StallAge, typename AddrOf, typename IsStore>
[[nodiscard]] std::uint64_t access_served(std::uint64_t requesters,
                                          ArbitrationPolicy policy,
                                          unsigned rr_pointer, bool broadcast,
                                          StallAge stall_age, AddrOf addr_of,
                                          IsStore is_store) {
  if ((requesters & (requesters - 1)) == 0) return requesters;
  const unsigned winner =
      conflict_winner(requesters, policy, rr_pointer, stall_age);
  if (!broadcast || is_store(winner)) return std::uint64_t{1} << winner;
  const auto addr = addr_of(winner);
  std::uint64_t served = 0;
  for (std::uint64_t rest = requesters; rest != 0; rest &= rest - 1) {
    const auto core = static_cast<unsigned>(std::countr_zero(rest));
    served |= std::uint64_t{!is_store(core) && addr_of(core) == addr} << core;
  }
  return served;
}

/// The enhanced D-Xbar's policy group among a conflicting bank's
/// `requesters`: the largest set of them at one PC (`pc_of`), ties to the
/// lowest PC. 0 when no two requesters share a PC.
template <typename PcOf>
[[nodiscard]] std::uint64_t pc_group(std::uint64_t requesters,
                                     PcOf pc_of) {
  std::uint64_t best = 0;
  int best_size = 1;  // a group has at least two members
  for (std::uint64_t rest = requesters; rest != 0;) {
    const auto pc = pc_of(static_cast<unsigned>(std::countr_zero(rest)));
    std::uint64_t same = 0;
    int size = 0;  // counted in the scan, not by a popcount library call
    for (std::uint64_t scan = rest; scan != 0; scan &= scan - 1) {
      const auto core = static_cast<unsigned>(std::countr_zero(scan));
      const bool at_pc = pc_of(core) == pc;
      same |= std::uint64_t{at_pc} << core;
      size += at_pc;
    }
    rest &= ~same;
    const bool lower_pc_tie =
        size == best_size && best != 0 &&
        pc < pc_of(static_cast<unsigned>(std::countr_zero(best)));
    if (size > best_size || lower_pc_tie) {
      best = same;
      best_size = size;
    }
  }
  return best;
}

}  // namespace ulpsync::sim
