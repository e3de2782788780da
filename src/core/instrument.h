#pragma once

/// Automatic synchronization-point insertion (the paper's Section IV-C
/// "automated during the compilation process" extension).
///
/// Given an assembled program, the pass:
///  1. builds per-function CFGs with dominators/post-dominators, natural
///     loops and a divergence (uniform/varying) analysis (`core/cfg.h`);
///  2. selects regions to bracket with SINC/SDEC:
///     * forward conditionals on varying flags (if/else diamonds): SINC
///       immediately before the branch, SDEC at the immediate
///       post-dominator (the join);
///     * loops whose exit/back-edge conditions are varying (data-dependent
///       trip counts): SINC in the fall-through preheader, SDEC at the
///       unique exit target;
///     skipping regions where check-in/check-out balance cannot be proven
///     (join reachable from outside, back edges into the region, loop with
///     multiple exit targets, jumps straight at the branch instruction) and
///     conditionals nested inside an already-instrumented divergent loop
///     (lockstep is lost there anyway);
///  3. rewrites the program with the insertions, remapping every branch,
///     JAL target and label.
///
/// Each region receives a distinct synchronization-point index, as in the
/// paper's Fig. 2.

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.h"

namespace ulpsync::core {

/// Which region kinds the pass brackets, and how many it may number.
struct InstrumentOptions {
  unsigned max_sync_points = 64;  ///< size of the DM checkpoint array
  bool instrument_conditionals = true;  ///< bracket varying if/else diamonds
  bool instrument_loops = true;  ///< bracket loops with varying trip counts
};

/// One bracketed region: its kind, its synchronization-point index and
/// where the SINC and SDEC were inserted.
struct InstrumentedRegion {
  enum class Kind : std::uint8_t { kConditional, kLoop };
  Kind kind = Kind::kConditional;
  unsigned sync_index = 0;
  std::uint32_t checkin_before = 0;  ///< original instruction index
  std::uint32_t checkout_before = 0; ///< original instruction index
};

/// The pass's output: the rewritten program and what was (not) bracketed.
struct InstrumentResult {
  assembler::Program program;  ///< rewritten program (code + image + labels)
  std::vector<InstrumentedRegion> regions;
  std::vector<std::string> skipped;  ///< human-readable skip reasons
  std::string error;                 ///< non-empty on failure

  /// True when the pass succeeded (`error` is empty).
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs the pass on `input` (typically the *plain* kernel variant).
[[nodiscard]] InstrumentResult auto_instrument(const assembler::Program& input,
                                               const InstrumentOptions& options);

}  // namespace ulpsync::core
