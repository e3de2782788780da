#pragma once

/// The host-facing workload abstraction of the scenario API.
///
/// A `Workload` is everything the sweep engine needs to run one program on
/// one platform instance: the assembled TR16 program (plain and
/// instrumented variants), the host-side input loader, the golden-reference
/// verifier, and the accounting hooks. The three paper kernels, the example
/// kernels and arbitrary user-assembled programs all implement this
/// interface and register in a `scenario::Registry` under a name, which is
/// what `RunSpec`s refer to.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "core/synchronizer.h"
#include "kernels/benchmark.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/platform.h"

namespace ulpsync::scenario {

/// Parameters a workload instance is built from. Reuses the benchmark
/// parameter block (sample count, channel/core count, kernel constants,
/// input generator); workloads that need less simply ignore the rest.
using WorkloadParams = kernels::BenchmarkParams;

/// Receiver of the periodic checkpoints a cooperating drive loop offers
/// (the engine's checkpoint ring, `EngineOptions::checkpoint_ring`). The
/// drive loop calls `offer` at *host-consistent* points — cycles at which
/// `host_words` fully describes any state the drive keeps outside the
/// platform — and should pause `Platform::run` no later than `next_due()`
/// so a long uninterrupted simulation stretch cannot starve the ring.
/// Offering is free when no checkpoint is due; the sink decides whether to
/// actually persist anything, so simulation results never depend on it.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Cycle by which the drive loop should next offer a checkpoint.
  [[nodiscard]] virtual std::uint64_t next_due() const = 0;

  /// Offers the platform's current state as a checkpoint. `host_words`
  /// must let `Workload::drive` resume from exactly this point (empty for
  /// drives that keep no host state).
  virtual void offer(sim::Platform& platform,
                     const std::vector<std::uint64_t>& host_words) = 0;
};

/// Destination of one deposited data-memory word (a `Platform::dm_write`
/// bound to a platform instance, or a write into a batch lane's private DM
/// image — see sim/batch/).
using DmWriteFn = std::function<void(std::uint32_t addr, std::uint16_t word)>;

/// Destination of one contiguous run of deposited data-memory words,
/// starting at `addr`. The bulk counterpart of `DmWriteFn`: a batched
/// cohort deposits the same windows into hundreds of lane memories, where
/// per-word closure dispatch dominates the copy itself.
using DmWriteBlockFn =
    std::function<void(std::uint32_t addr, std::span<const std::uint16_t>)>;

/// Structural description of a *duty-cycled windowed* host loop — the
/// deployment mode the platform is built for: run to the initial sleep,
/// then per acquisition window deposit fresh samples, wake every core by
/// interrupt, and run until the group sleeps again.
///
/// A workload that exposes this interface (`Workload::windowed_drive`)
/// declares that its entire host loop is the generic `drive_windowed` below
/// over these hooks. That makes the loop *externally steppable*: the batch
/// engine can interleave many independent platform instances window by
/// window, and a lane that falls out of the batch resumes scalar execution
/// at any window boundary — bit-identically, because scalar runs use the
/// very same sequencing.
///
/// Contract: all lane-varying data (anything derived from
/// `params.generator`) must flow through `deposit`; `Workload::load_inputs`
/// must write the same words for every spec that differs only in generator
/// parameters. Host-side progress is exactly the two words returned by
/// `host_words()` — {windows completed, busy cycles} — so any window
/// boundary plus those words is a complete resume point.
class WindowedDrive {
 public:
  virtual ~WindowedDrive() = default;

  /// Number of acquisition windows in the run.
  [[nodiscard]] virtual unsigned windows() const = 0;

  /// Cycle bound for the cold prologue (reset to the first sleep).
  [[nodiscard]] virtual std::uint64_t initial_bound() const { return 100'000; }

  /// Per-window cycle budget (bound on one wake-process-sleep burst).
  [[nodiscard]] virtual std::uint64_t window_budget() const {
    return 10'000'000;
  }

  /// Writes window `window`'s fresh samples through `write`.
  virtual void deposit(unsigned window, const DmWriteFn& write) const = 0;

  /// Writes window `window`'s fresh samples as contiguous runs. Same words
  /// as `deposit` (addresses may arrive in a different order — window
  /// deposits never overlap, so the final memory image is identical);
  /// workloads whose windows are dense per-channel runs override this so a
  /// batched cohort can block-copy into lane memories. The default adapts
  /// `deposit` one word at a time.
  virtual void deposit_blocks(unsigned window,
                              const DmWriteBlockFn& write) const {
    deposit(window, [&write](std::uint32_t addr, std::uint16_t word) {
      write(addr, {&word, 1});
    });
  }

  /// Restores host-side progress from checkpoint words ({windows completed,
  /// busy cycles}); an empty span resets to a cold start.
  virtual void adopt_host_words(std::span<const std::uint64_t> words) const = 0;

  /// Current host-side progress, as the words `adopt_host_words` accepts.
  [[nodiscard]] virtual std::vector<std::uint64_t> host_words() const = 0;

  /// Accounts one completed window that kept the cores busy for
  /// `busy_cycles` cycles.
  virtual void note_window(std::uint64_t busy_cycles) const = 0;
};

/// Runs a windowed workload's host loop on one platform. With
/// `resume_window` unset this is a cold start: host words are reset and the
/// platform runs to its initial sleep. With `resume_window = w` the
/// platform must already be at the all-asleep boundary of window `w` with
/// host words adopted (a checkpoint restore, or a batch lane falling back
/// to scalar execution); the loop continues from window `w`. When `sink`
/// is non-null, every completed all-asleep window boundary is offered as a
/// checkpoint together with `drive.host_words()`.
sim::RunResult drive_windowed(const WindowedDrive& drive,
                              sim::Platform& platform,
                              std::uint64_t max_cycles,
                              std::optional<unsigned> resume_window = {},
                              CheckpointSink* sink = nullptr);

/// One runnable program with its host-side hooks (see the file comment).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Registry name of this workload.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Number of cores this workload occupies (one channel per core).
  [[nodiscard]] virtual unsigned num_cores() const = 0;

  /// The assembled program; `instrumented` selects the variant with
  /// check-in/check-out synchronization points. The engine runs the
  /// instrumented variant exactly when the design has the synchronizer.
  [[nodiscard]] virtual const assembler::Program& program(
      bool instrumented) const = 0;

  /// Writes parameters and input data into the platform's data memory.
  virtual void load_inputs(sim::Platform& platform) const = 0;

  /// Compares the platform's outputs against the golden reference after a
  /// finished run. Returns an empty string on success, else a description
  /// of the first mismatch.
  [[nodiscard]] virtual std::string verify(
      const sim::Platform& platform) const = 0;

  /// Platform configuration before the `RunSpec` overrides are applied.
  [[nodiscard]] virtual sim::PlatformConfig base_config(
      bool with_synchronizer) const {
    sim::PlatformConfig config = with_synchronizer
                                     ? sim::PlatformConfig::with_synchronizer()
                                     : sim::PlatformConfig::without_synchronizer();
    config.num_cores = num_cores();
    return config;
  }

  /// Application-level operation count (synchronization overhead excluded),
  /// the denominator of every iso-workload comparison.
  [[nodiscard]] virtual std::uint64_t useful_ops(
      const sim::EventCounters& counters,
      const core::SynchronizerStats& sync_stats) const {
    return counters.retired_ops - sync_stats.checkins - sync_stats.checkouts;
  }

  /// Executes the workload on a loaded platform: `drive_windowed` over
  /// `windowed_drive()` when the workload has one, else `platform.run`
  /// until all cores halt (or the budget is exhausted). With a `sink`, the
  /// drive offers host-consistent checkpoints (see `CheckpointSink`): a
  /// windowed drive at every completed window, `platform.run` in slices
  /// bounded by `sink->next_due()` — stopping and continuing a platform run
  /// is bit-identical to one uninterrupted run. Non-empty
  /// `resume_host_words` mean the platform was restored from a checkpoint
  /// and the words are the ones offered alongside it: a windowed drive
  /// adopts its two words and continues from that window boundary.
  sim::RunResult drive(sim::Platform& platform, std::uint64_t max_cycles,
                       CheckpointSink* sink = nullptr,
                       std::span<const std::uint64_t> resume_host_words = {})
      const;

  /// Structural view of this workload's host loop when it is a duty-cycled
  /// window loop (see `WindowedDrive`); null when the whole run is one
  /// `platform.run`. Non-null is what makes a workload eligible for the
  /// batch engine (scenario/batch.h) and keeps a budget fan-out of it from
  /// sharing one run (`Engine::run_groups`): a budget stop lands
  /// mid-window, where the loop cannot continue.
  [[nodiscard]] virtual const WindowedDrive* windowed_drive() const {
    return nullptr;
  }

  /// Workload-specific outputs harvested after the run (key/value pairs,
  /// e.g. detected beats per channel). Attached to the `RunRecord` as
  /// `extra` fields and serialized with it.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>>
  report(const sim::Platform& platform) const {
    (void)platform;
    return {};
  }
};

}  // namespace ulpsync::scenario
