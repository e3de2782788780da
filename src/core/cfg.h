#pragma once

/// Control-flow analysis over assembled TR16 programs, supporting the
/// automatic synchronization-point insertion pass (paper Section IV-C:
/// "this instrumentation can in principle be automated during the
/// compilation process").
///
/// The program is partitioned into per-function control-flow graphs
/// (functions = the program entry plus every JAL target; calls are treated
/// as fall-through edges, JR/HALT as function exits). On each function we
/// compute dominators, post-dominators, natural loops, and a *divergence*
/// (uniform/varying) dataflow analysis in the style of GPU compilers: a
/// value is varying when it can differ across cores — derived from the
/// core-id CSR or from memory at a varying address. Conditional branches on
/// varying flags are exactly the "data-dependent program flow" of the paper.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace ulpsync::core {

/// A basic block: instructions [begin, end) in program-relative indices.
struct BasicBlock {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  ///< one past the last instruction
  std::vector<std::uint32_t> successors;    ///< block ids
  std::vector<std::uint32_t> predecessors;  ///< block ids

  /// Index of the block's last instruction (its terminator, if any).
  [[nodiscard]] std::uint32_t last_instr() const { return end - 1; }
};

/// Per-function CFG with analyses.
struct FunctionCfg {
  std::uint32_t entry_instr = 0;  ///< program-relative entry index
  std::vector<BasicBlock> blocks; ///< blocks[0] is the entry block
  /// Immediate dominator per block (blocks[0] has idom = itself).
  std::vector<std::uint32_t> idom;
  /// Immediate post-dominator per block, relative to a virtual exit.
  /// kNoPostDom when the block cannot reach any exit.
  std::vector<std::uint32_t> ipdom;
  static constexpr std::uint32_t kNoPostDom = 0xFFFFFFFF;

  /// Natural loop: header block plus body (includes header).
  struct Loop {
    std::uint32_t header = 0;
    std::vector<std::uint32_t> body;          ///< block ids, sorted
    std::vector<std::uint32_t> back_edge_srcs;///< blocks with edge to header
    /// True when block id `block` is in the loop's body.
    [[nodiscard]] bool contains(std::uint32_t block) const;
  };
  std::vector<Loop> loops;

  /// instruction index -> true when the CMP producing this conditional
  /// branch's flags is varying (data-dependent across cores).
  std::vector<bool> varying_branch;  ///< indexed by program instruction

  /// True when block `a` dominates block `b` (every path from the entry
  /// to `b` passes `a`; a block dominates itself).
  [[nodiscard]] bool dominates(std::uint32_t a, std::uint32_t b) const;
  /// True when block `a` post-dominates block `b` (every path from `b` to
  /// an exit passes `a`; a block post-dominates itself). False when `b`
  /// reaches no exit.
  [[nodiscard]] bool post_dominates(std::uint32_t a, std::uint32_t b) const;
  /// Id of the block holding program-relative instruction `instr`, or
  /// 0xFFFFFFFF when no block of this function holds it.
  [[nodiscard]] std::uint32_t block_of(std::uint32_t instr) const;
};

/// Whole-program analysis result.
struct ProgramCfg {
  std::vector<FunctionCfg> functions;
  std::string error;  ///< non-empty if the program could not be analyzed

  /// True when the analysis succeeded (`error` is empty).
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Builds per-function CFGs with dominators, post-dominators, loops and the
/// divergence analysis. `code` is the decoded program (program-relative
/// branch targets; `origin` is needed to rebase absolute JAL targets).
[[nodiscard]] ProgramCfg analyze_program(const std::vector<isa::Instruction>& code,
                                         std::uint32_t origin);

}  // namespace ulpsync::core
