#pragma once

/// Predecoded instruction memory.
///
/// The physical IM stores encoded instruction words; re-decoding a word on
/// every fetch would put bit-field extraction on the simulator's hottest
/// path. A `DecodedImage` is built once per `load`: every loaded slot holds
/// a ready-to-execute `isa::Instruction`, the IM bank of every slot — a
/// divide/modulo chain under the configurable line-interleaved mapping — is
/// precomputed into a flat lookup table, and two per-slot classification
/// tables drive the platform's fast paths: the straight-line run length
/// (`straight_run`) and the region-safety flag (`region_safe`). Only the
/// program range [begin, end) is materialized — fetches outside it trap on
/// the `in_program` check before any table is consulted — so construction
/// and loading cost O(program), not O(IM capacity).
///
/// Images can be loaded either from an already-decoded instruction sequence
/// (the assembler's output) or from an encoded word image
/// (`load_encoded`), which is how a program round-trips through
/// `isa::encode`/`isa::decode` — e.g. when a host loads a binary image
/// produced by an external toolchain.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace ulpsync::sim {

/// True for instructions the region executor's straight-line step may
/// retire in batches, without the full per-cycle machinery: register-only
/// operations that always advance to pc+1 and can never trap, redirect,
/// sleep, halt, or touch data memory / the synchronizer. Branches are excluded even when not taken (whether
/// they redirect depends on runtime flags); CSR accesses qualify only when
/// their operands are statically trap-free.
[[nodiscard]] bool is_straight_line(const isa::Instruction& instr);

/// Instruction memory predecoded for the simulator's fetch path (see the
/// file comment).
class DecodedImage {
 public:
  DecodedImage() = default;

  /// An image of `slots` IM slots with the bank mapping built for the given
  /// geometry: `line_slots == 0` selects pure block mapping
  /// (bank = pc / bank_slots), otherwise lines of `line_slots` consecutive
  /// slots rotate across `banks`. Unloaded slots read as HALT (they are
  /// outside the program, so the platform traps before fetching them).
  DecodedImage(unsigned slots, unsigned banks, unsigned bank_slots,
               unsigned line_slots);

  /// Installs decoded code at `origin`; all other slots reset to HALT.
  /// Returns an empty string on success, else why the code does not fit
  /// the image (the image is left unmodified on failure). The one fit
  /// check of both load paths.
  [[nodiscard]] std::string load(std::uint32_t origin,
                                 std::span<const isa::Instruction> code);

  /// Decodes an encoded word image and installs it at `origin`. Returns an
  /// empty string on success, else a description of the first undecodable
  /// word or of the misfit (the image is left unmodified on failure).
  [[nodiscard]] std::string load_encoded(std::uint32_t origin,
                                         std::span<const std::uint32_t> image);

  /// Number of IM slots.
  [[nodiscard]] std::uint32_t slots() const { return slots_; }
  /// First slot of the loaded program.
  [[nodiscard]] std::uint32_t begin() const { return begin_; }
  /// One past the last slot of the loaded program.
  [[nodiscard]] std::uint32_t end() const { return end_; }
  /// True when `pc` addresses a slot inside the loaded program.
  [[nodiscard]] bool in_program(std::uint32_t pc) const {
    return pc >= begin_ && pc < end_;
  }

  /// Predecoded instruction at `pc` (unchecked; `pc` must be in-program).
  [[nodiscard]] const isa::Instruction& at(std::uint32_t pc) const {
    return code_[pc - begin_];
  }
  /// Precomputed IM bank of `pc` (unchecked; `pc` must be in-program).
  [[nodiscard]] unsigned bank_of(std::uint32_t pc) const {
    return bank_table_[pc - begin_];
  }

  /// Length of the maximal straight-line run starting at `pc`: the number
  /// of consecutive in-program slots from `pc` on whose instructions all
  /// satisfy `is_straight_line` (0 when `pc`'s own instruction does not).
  /// Precomputed per load; saturates at 65535. The region executor's
  /// straight-line step retires whole runs at once. Unchecked; `pc` must
  /// be in-program.
  [[nodiscard]] std::uint32_t straight_run(std::uint32_t pc) const {
    return run_table_[pc - begin_];
  }

  /// True when the instruction at `pc` cannot touch the synchronizer or
  /// change the core's scheduling state beyond a (possibly conflicting)
  /// data-memory access: straight-line instructions, all control flow, and
  /// plain loads/stores. Everything such an instruction does is covered by
  /// the arbitrated cycles of the platform's region executor (`execute`
  /// yields kAdvance, kMemLoad or kMemStore — never trap/sync/sleep/halt).
  /// Precomputed per load. Unchecked; `pc` must be in-program.
  [[nodiscard]] bool region_safe(std::uint32_t pc) const {
    return safe_table_[pc - begin_] != 0;
  }

  /// Order-sensitive 64-bit fingerprint of the loaded image (instructions,
  /// program bounds and bank geometry). Two images with equal fingerprints
  /// fetch and execute identically; the snapshot subsystem stores this
  /// instead of the instructions (programs cannot self-modify) and verifies
  /// it on restore. Computed lazily on first use after a load — hashing the
  /// capacity-sized bank mapping costs more than a short simulation, and
  /// only snapshot users ever need it. The hash bytes are identical to the
  /// historical eager implementation.
  [[nodiscard]] std::uint64_t fingerprint() const {
    if (fingerprint_dirty_) refresh_fingerprint();
    return fingerprint_;
  }

  friend bool operator==(const DecodedImage& a, const DecodedImage& b) {
    return a.slots_ == b.slots_ && a.banks_ == b.banks_ &&
           a.bank_slots_ == b.bank_slots_ && a.line_slots_ == b.line_slots_ &&
           a.begin_ == b.begin_ && a.end_ == b.end_ && a.code_ == b.code_;
  }

 private:
  [[nodiscard]] unsigned bank_value(std::uint32_t pc) const {
    return line_slots_ == 0 ? pc / bank_slots_ : (pc / line_slots_) % banks_;
  }
  void refresh_fingerprint() const;
  void refresh_tables();

  // Per-slot tables over the program range [begin_, end_) only.
  std::vector<isa::Instruction> code_;
  std::vector<std::uint16_t> bank_table_;  ///< IM bank per slot
  std::vector<std::uint16_t> run_table_;   ///< straight-line run length per slot
  std::vector<std::uint8_t> safe_table_;   ///< region-safe flag per slot
  std::uint32_t slots_ = 0;
  unsigned banks_ = 1;
  unsigned bank_slots_ = 1;
  unsigned line_slots_ = 0;
  std::uint32_t begin_ = 0;
  std::uint32_t end_ = 0;
  mutable std::uint64_t fingerprint_ = 0;
  mutable bool fingerprint_dirty_ = true;
};

}  // namespace ulpsync::sim
