#include "scenario/workloads.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/instrument.h"
#include "ecg/generator.h"
#include "isa/isa.h"
#include "kernels/memmap.h"
#include "kernels/sources.h"
#include "util/rng.h"

namespace ulpsync::scenario {

namespace {

assembler::Program assemble_or_throw(const std::string& source,
                                     std::string_view what) {
  auto result = assembler::assemble(source);
  if (!result.ok()) {
    throw std::runtime_error("assembly failed for " + std::string(what) +
                             ":\n" + result.error_text());
  }
  return std::move(result.program);
}

assembler::Program auto_instrument_or_throw(const assembler::Program& plain,
                                            std::string_view what) {
  auto result = core::auto_instrument(plain, core::InstrumentOptions{});
  if (!result.ok()) {
    throw std::runtime_error("auto-instrumentation failed for " +
                             std::string(what) + ": " + result.error);
  }
  return std::move(result.program);
}

/// Adapter exposing kernels::Benchmark through the Workload interface; the
/// `.auto` variants swap the hand-instrumented program for the output of
/// the automatic CFG pass on the plain kernel.
class BenchmarkWorkload final : public Workload {
 public:
  BenchmarkWorkload(kernels::BenchmarkKind kind, const WorkloadParams& params,
                    bool auto_instrumented)
      : benchmark_(kind, params), auto_instrumented_(auto_instrumented) {
    name_ = benchmark_name_lower(kind);
    if (auto_instrumented_) {
      name_ += ".auto";
      auto_program_ = auto_instrument_or_throw(benchmark_.program(false), name_);
    }
  }

  [[nodiscard]] static std::string benchmark_name_lower(
      kernels::BenchmarkKind kind) {
    std::string name(kernels::benchmark_name(kind));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return name;
  }

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned num_cores() const override {
    return benchmark_.params().num_channels;
  }
  [[nodiscard]] const assembler::Program& program(
      bool instrumented) const override {
    if (instrumented && auto_instrumented_) return auto_program_;
    return benchmark_.program(instrumented);
  }
  void load_inputs(sim::Platform& platform) const override {
    benchmark_.load_inputs(platform);
  }
  [[nodiscard]] std::string verify(const sim::Platform& platform) const override {
    return benchmark_.verify(platform);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> report(
      const sim::Platform& platform) const override {
    std::vector<std::pair<std::string, std::string>> out;
    const bool instrumented = platform.config().features.hardware_synchronizer;
    out.emplace_back("sync_points",
                     std::to_string(count_sync_points(program(instrumented))));
    if (benchmark_.kind() == kernels::BenchmarkKind::kMrpdln) {
      // Delineation output: detected beat positions per channel.
      for (unsigned c = 0; c < num_cores(); ++c) {
        const std::uint32_t base = kernels::channel_base(c) + kernels::kChanOut;
        const unsigned beats = platform.dm_read(base);
        std::string positions;
        for (unsigned b = 0; b < beats; ++b) {
          if (b) positions += ' ';
          positions += std::to_string(platform.dm_read(base + 1 + b));
        }
        out.emplace_back("beats." + std::to_string(c), positions);
      }
    }
    return out;
  }

 private:
  kernels::Benchmark benchmark_;
  bool auto_instrumented_;
  std::string name_;
  assembler::Program auto_program_;
};

/// A workload assembled from user TR16 source with host hooks supplied as
/// callables (see AsmWorkloadDesc).
class AsmWorkload final : public Workload {
 public:
  AsmWorkload(AsmWorkloadDesc desc, const WorkloadParams& params)
      : desc_(std::move(desc)), params_(params) {
    if (!desc_.load) {
      throw std::runtime_error("workload '" + desc_.name +
                               "' has no input loader");
    }
    if (params_.num_channels != desc_.num_cores) {
      throw std::runtime_error(
          "workload '" + desc_.name + "' is assembled for " +
          std::to_string(desc_.num_cores) + " cores but the spec asks for " +
          std::to_string(params_.num_channels) +
          "; register it with the desc-builder overload of "
          "register_asm_workload to make it sweepable");
    }
    plain_ = assemble_or_throw(
        kernels::preprocess_sync_markers(desc_.source, false), desc_.name);
    instrumented_ =
        desc_.auto_instrument
            ? auto_instrument_or_throw(plain_, desc_.name)
            : assemble_or_throw(
                  kernels::preprocess_sync_markers(desc_.source, true),
                  desc_.name);
  }

  [[nodiscard]] std::string_view name() const override { return desc_.name; }
  [[nodiscard]] unsigned num_cores() const override { return desc_.num_cores; }
  [[nodiscard]] const assembler::Program& program(
      bool instrumented) const override {
    return instrumented ? instrumented_ : plain_;
  }
  void load_inputs(sim::Platform& platform) const override {
    desc_.load(platform, params_);
  }
  [[nodiscard]] std::string verify(const sim::Platform& platform) const override {
    return desc_.verify ? desc_.verify(platform, params_) : std::string{};
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> report(
      const sim::Platform& platform) const override {
    std::vector<std::pair<std::string, std::string>> out;
    const bool instrumented = platform.config().features.hardware_synchronizer;
    out.emplace_back("sync_points",
                     std::to_string(count_sync_points(program(instrumented))));
    if (desc_.report) {
      auto more = desc_.report(platform, params_);
      out.insert(out.end(), more.begin(), more.end());
    }
    return out;
  }

 private:
  AsmWorkloadDesc desc_;
  WorkloadParams params_;
  assembler::Program plain_;
  assembler::Program instrumented_;
};

// --- clip8: the quickstart kernel ------------------------------------------
// Each core clips N samples of its private channel at a shared limit; the
// comparison is data-dependent, so without check-in/check-out the cores fall
// out of lockstep and fetches serialize.

std::string clip8_source(unsigned samples) {
  return R"(
      csrr r1, #0          ; core id
      addi r4, r1, 2
      movi r5, 11
      sll  r3, r4, r5      ; channel base = (2 + id) << 11
      movi r2, )" + std::to_string(samples) + R"(
      movi r6, 100         ; clip limit
      movi r8, 0           ; i
  loop:
      cmp  r8, r2
      bge  end
      ldx  r9, [r3+r8]
      !sync sinc #0        ; check-in before the data-dependent branch
      cmp  r9, r6
      blt  keep
      mov  r9, r6          ; clip
  keep:
      !sync sdec #0        ; check-out: resynchronize the cores
      stx  r9, [r3+r8]
      addi r8, r8, 1
      bra  loop
  end:
      halt
  )";
}

std::uint16_t clip8_input(unsigned channel, unsigned i) {
  return static_cast<std::uint16_t>(i * 3 + channel);
}

AsmWorkloadDesc clip8_desc(const WorkloadParams& params) {
  AsmWorkloadDesc desc;
  desc.name = "clip8";
  desc.source = clip8_source(params.samples);
  desc.num_cores = params.num_channels;
  desc.load = [](sim::Platform& platform, const WorkloadParams& p) {
    for (unsigned c = 0; c < p.num_channels; ++c) {
      for (unsigned i = 0; i < p.samples; ++i) {
        platform.dm_write(kernels::channel_base(c) + i, clip8_input(c, i));
      }
    }
  };
  desc.verify = [](const sim::Platform& platform, const WorkloadParams& p) {
    for (unsigned c = 0; c < p.num_channels; ++c) {
      for (unsigned i = 0; i < p.samples; ++i) {
        const std::uint16_t expected =
            std::min<std::uint16_t>(clip8_input(c, i), 100);
        const std::uint16_t got =
            platform.dm_read(kernels::channel_base(c) + i);
        if (got != expected) {
          std::ostringstream err;
          err << "clip8 channel " << c << " sample " << i << ": got " << got
              << ", expected " << expected;
          return err.str();
        }
      }
    }
    return std::string{};
  };
  return desc;
}

// --- bandcount: the custom-kernel example -----------------------------------
// Per channel, counts of samples in four amplitude bands (<100, <300, <800,
// rest) — a data-dependent cascade of branches, exactly the control flow
// that destroys lockstep. Band counters live at kChanOut of each channel.

std::string bandcount_source(unsigned samples) {
  return R"(
    csrr r1, #0
    addi r4, r1, 2
    movi r5, 11
    sll  r3, r4, r5       ; channel base
    movi r2, )" + std::to_string(samples) + R"(
    addi r10, r3, 1536    ; out base (4 counters, zeroed by host)
    movi r8, 0            ; i
loop:
    cmp  r8, r2
    bge  done
    ldx  r9, [r3+r8]
    !sync sinc #0
    movi r11, 0           ; band index
    cmpi r9, 100
    blt  bump
    movi r11, 1
    cmpi r9, 300
    blt  bump
    movi r11, 2
    cmpi r9, 800
    blt  bump
    movi r11, 3
bump:
    ldx  r12, [r10+r11]
    addi r12, r12, 1
    stx  r12, [r10+r11]
    !sync sdec #0
    addi r8, r8, 1
    bra  loop
done:
    halt
)";
}

AsmWorkloadDesc bandcount_desc(const WorkloadParams& params,
                               bool auto_instrument) {
  AsmWorkloadDesc desc;
  desc.name = auto_instrument ? "bandcount.auto" : "bandcount";
  desc.source = bandcount_source(params.samples);
  desc.num_cores = params.num_channels;
  desc.auto_instrument = auto_instrument;
  desc.load = [](sim::Platform& platform, const WorkloadParams& p) {
    util::Rng rng(p.generator.seed);
    for (unsigned c = 0; c < p.num_channels; ++c) {
      for (unsigned i = 0; i < p.samples; ++i) {
        platform.dm_write(
            kernels::channel_base(c) + i,
            static_cast<std::uint16_t>(rng.next_below(1200)));
      }
      for (unsigned b = 0; b < 4; ++b) {
        platform.dm_write(kernels::channel_base(c) + kernels::kChanOut + b, 0);
      }
    }
  };
  desc.verify = [](const sim::Platform& platform, const WorkloadParams& p) {
    util::Rng rng(p.generator.seed);  // same stream as the loader
    for (unsigned c = 0; c < p.num_channels; ++c) {
      unsigned expected[4] = {0, 0, 0, 0};
      for (unsigned i = 0; i < p.samples; ++i) {
        const auto v = rng.next_below(1200);
        expected[v < 100 ? 0 : v < 300 ? 1 : v < 800 ? 2 : 3]++;
      }
      for (unsigned b = 0; b < 4; ++b) {
        const std::uint16_t got =
            platform.dm_read(kernels::channel_base(c) + kernels::kChanOut + b);
        if (got != expected[b]) {
          std::ostringstream err;
          err << "bandcount channel " << c << " band " << b << ": got " << got
              << ", expected " << expected[b];
          return err.str();
        }
      }
    }
    return std::string{};
  };
  desc.report = [](const sim::Platform& platform, const WorkloadParams& p) {
    std::vector<std::pair<std::string, std::string>> out;
    for (unsigned c = 0; c < p.num_channels; ++c) {
      std::string bands;
      for (unsigned b = 0; b < 4; ++b) {
        if (b) bands += ' ';
        bands += std::to_string(
            platform.dm_read(kernels::channel_base(c) + kernels::kChanOut + b));
      }
      out.emplace_back("bands." + std::to_string(c), bands);
    }
    return out;
  };
  return desc;
}

// --- windowed workloads: the duty-cycled deployment mode ---------------------
// Process one acquisition window, sleep, wake on the sample-ready interrupt.
// All of them share the WindowedDrive host loop (see workload.h), which is
// what makes them batchable: the batch engine steps many instances window by
// window against the same program, and any instance can fall back to this
// scalar loop at a window boundary with bit-identical results.

/// Samples are deposited rescaled to [0, 255] so window sums stay within a
/// 16-bit register and all comparisons are unambiguous under signed flags.
std::uint16_t stream_encode(std::int16_t sample) {
  const int shifted = std::clamp(2048 + static_cast<int>(sample), 0, 4095);
  return static_cast<std::uint16_t>(shifted / 16);
}

/// Process-wide memo of encoded channel streams. A stream is a pure
/// function of (generator parameters, channel, length), and cohort work
/// regenerates the same streams many times per process — the scalar/batch
/// differential pair, bench repetitions, checkpoint-resume re-runs — while
/// generation itself (exp-heavy beat morphology per sample) dominates
/// short runs. Sharing the encoded vectors is therefore safe and pays for
/// itself immediately. The cache clears wholesale when it outgrows its
/// budget instead of evicting piecemeal: a soak over ever-fresh cohorts
/// would otherwise pin unbounded memory, and regeneration is always
/// correct.
class EncodedStreamCache {
 public:
  static std::shared_ptr<const std::vector<std::uint16_t>> get(
      const ecg::GeneratorParams& params, unsigned channel,
      std::size_t total) {
    static EncodedStreamCache cache;
    std::string key = make_key(params, channel, total);
    {
      const std::lock_guard<std::mutex> lock(cache.mutex_);
      const auto it = cache.entries_.find(key);
      if (it != cache.entries_.end()) return it->second;
    }
    // Generate outside the lock; a racing duplicate costs one regeneration
    // and resolves to identical bytes.
    const auto raw = ecg::generate_channel(params, channel, total);
    auto encoded = std::make_shared<std::vector<std::uint16_t>>(total);
    for (std::size_t i = 0; i < total; ++i) {
      (*encoded)[i] = stream_encode(raw[i]);
    }
    std::shared_ptr<const std::vector<std::uint16_t>> value =
        std::move(encoded);
    const std::lock_guard<std::mutex> lock(cache.mutex_);
    cache.bytes_ += total * sizeof(std::uint16_t);
    if (cache.bytes_ > kMaxBytes) {
      cache.entries_.clear();
      cache.bytes_ = total * sizeof(std::uint16_t);
    }
    cache.entries_.emplace(std::move(key), value);
    return value;
  }

 private:
  static constexpr std::size_t kMaxBytes = 64ull << 20;

  /// The full value-defining tuple, doubles as exact bit patterns.
  static std::string make_key(const ecg::GeneratorParams& p, unsigned channel,
                              std::size_t total) {
    const std::uint64_t words[] = {
        std::bit_cast<std::uint64_t>(p.sample_rate_hz),
        std::bit_cast<std::uint64_t>(p.heart_rate_bpm),
        std::bit_cast<std::uint64_t>(p.rr_jitter_fraction),
        std::bit_cast<std::uint64_t>(p.amplitude_lsb),
        std::bit_cast<std::uint64_t>(p.baseline_wander_lsb),
        std::bit_cast<std::uint64_t>(p.baseline_wander_hz),
        std::bit_cast<std::uint64_t>(p.noise_lsb),
        std::bit_cast<std::uint64_t>(p.artifact_rate_hz),
        std::bit_cast<std::uint64_t>(p.artifact_lsb),
        std::bit_cast<std::uint64_t>(p.dropout_rate_hz),
        std::bit_cast<std::uint64_t>(p.dropout_s),
        p.seed,
        channel,
        total,
    };
    return {reinterpret_cast<const char*>(words), sizeof(words)};
  }

  std::mutex mutex_;
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<std::uint16_t>>>
      entries_;
  std::size_t bytes_ = 0;
};

/// Common machinery of the duty-cycled window workloads: the per-channel
/// encoded sample cache, the deposit loop, and the {windows completed, busy
/// cycles} host-word bookkeeping of the WindowedDrive contract. Subclasses
/// supply the program, the window geometry and the verifier.
class WindowedWorkloadBase : public Workload, public WindowedDrive {
 public:
  [[nodiscard]] unsigned num_cores() const override {
    return params_.num_channels;
  }
  void load_inputs(sim::Platform& platform) const override { (void)platform; }

  [[nodiscard]] const WindowedDrive* windowed_drive() const override {
    return this;
  }

  // WindowedDrive:
  [[nodiscard]] unsigned windows() const override {
    return std::max(1u, params_.samples / window_length());
  }
  void deposit(unsigned window, const DmWriteBlockFn& write) const override {
    for (unsigned c = 0; c < num_cores(); ++c) {
      write(channel_base(c),
            std::span(channel_samples(c))
                .subspan(static_cast<std::size_t>(window) * window_length(),
                         window_length()));
    }
  }
  void adopt_host_words(std::span<const std::uint64_t> words) const override {
    if (words.size() == 2) {
      windows_run_ = static_cast<unsigned>(words[0]);
      busy_cycles_ = words[1];
    } else {
      windows_run_ = 0;
      busy_cycles_ = 0;
    }
  }
  [[nodiscard]] std::vector<std::uint64_t> host_words() const override {
    return {windows_run_, busy_cycles_};
  }
  void note_window(std::uint64_t busy_cycles) const override {
    busy_cycles_ += busy_cycles;
    ++windows_run_;
  }

 protected:
  explicit WindowedWorkloadBase(const WorkloadParams& params)
      : params_(params) {}

  /// Samples per acquisition window.
  [[nodiscard]] virtual unsigned window_length() const = 0;
  /// First DM word of a core's private channel buffer.
  [[nodiscard]] virtual std::uint32_t channel_base(unsigned core) const = 0;

  /// The channel's whole encoded stream, shared through the process-wide
  /// memo (the generator is deterministic, so verify sees the deposited
  /// values and every instance of the same parameters sees the same bytes).
  [[nodiscard]] const std::vector<std::uint16_t>& channel_samples(
      unsigned channel) const {
    if (encoded_.empty()) encoded_.resize(num_cores());
    auto& cache = encoded_[channel];
    if (!cache) {
      const std::size_t total =
          static_cast<std::size_t>(windows()) * window_length();
      cache = EncodedStreamCache::get(params_.generator, channel, total);
    }
    return *cache;
  }

  WorkloadParams params_;
  // Per-run host-loop state; the engine creates one workload instance per
  // run, so these are only ever touched by that run's thread.
  mutable std::vector<std::shared_ptr<const std::vector<std::uint16_t>>>
      encoded_;
  mutable std::uint64_t busy_cycles_ = 0;
  mutable unsigned windows_run_ = 0;
};

// --- streaming: the duty-cycled window monitor ------------------------------
// Per window: detrend the channel by its window mean, then count threshold
// crossings. The classic shape scans with a refractory skip — the
// data-dependent branch is the paper's divergence source. The `.uniform`
// shape computes the same kind of statistic branchlessly (power-of-two
// window, sign-bit arithmetic), so its retirement traces are identical on
// every input — the batch-friendly streaming monitor.

constexpr unsigned kStreamWindow = 125;  ///< samples per window (0.5 s @ 250 Hz)
constexpr unsigned kStreamUniformWindow = 128;  ///< power of two: mean is a shift
constexpr unsigned kStreamThresholdDelta = 25;
constexpr std::uint16_t kStreamResultBase = 0x900;

constexpr std::string_view kStreamingSource = R"(
    csrr r1, #0
    addi r4, r1, 2
    movi r5, 11
    sll  r3, r4, r5       ; channel base
    movi r2, 125          ; window length
    movi r7, 0x900        ; shared result block
forever:
    sleep                 ; wait for the sample-ready interrupt
; --- window mean (uniform loop: no divergence) ---
    movi r8, 0            ; i
    movi r9, 0            ; acc
mean_loop:
    cmp  r8, r2
    bge  mean_done
    ldx  r10, [r3+r8]
    add  r9, r9, r10
    addi r8, r8, 1
    bra  mean_loop
mean_done:
    movi r10, 125
    movi r11, 0
div_loop:                 ; acc / 125 by repeated subtraction
    cmp  r9, r10
    blt  div_done
    sub  r9, r9, r10
    addi r11, r11, 1
    bra  div_loop
div_done:
; --- threshold-crossing count (data-dependent) ---
    movi r8, 0
    movi r12, 0           ; crossings
    addi r13, r11, 25     ; threshold = mean + delta
    !sync sinc #0
scan_loop:
    cmp  r8, r2
    bge  scan_done
    ldx  r10, [r3+r8]
    cmp  r10, r13
    blt  scan_next
    addi r12, r12, 1
    addi r8, r8, 10       ; refractory skip
    bra  scan_loop
scan_next:
    addi r8, r8, 1
    bra  scan_loop
scan_done:
    !sync sdec #0
    stx  r12, [r7+r1]     ; publish the count
    bra  forever
)";

/// Branchless variant of the monitor: mean by shift (128-sample window),
/// threshold comparison folded into sign-bit arithmetic. No data-dependent
/// control flow, so every lane of a batch retires the same trace.
constexpr std::string_view kStreamingUniformSource = R"(
    csrr r1, #0
    addi r4, r1, 2
    movi r5, 11
    sll  r3, r4, r5       ; channel base
    movi r2, 128          ; window length (power of two)
    movi r7, 0x900        ; shared result block
forever:
    sleep                 ; wait for the sample-ready interrupt
; --- window mean (uniform counted loop) ---
    movi r8, 0            ; i
    movi r9, 0            ; acc
mean_loop:
    ldx  r10, [r3+r8]
    add  r9, r9, r10
    addi r8, r8, 1
    cmp  r8, r2
    blt  mean_loop
    srli r11, r9, 7       ; mean = acc / 128
    addi r13, r11, 25     ; threshold = mean + delta
; --- branchless threshold count ---
    movi r8, 0
    movi r12, 0           ; count
count_loop:
    ldx  r10, [r3+r8]
    sub  r14, r10, r13
    srli r14, r14, 15     ; sign bit: 1 when sample < threshold
    xori r14, r14, 1      ; ... so 1 when sample >= threshold
    add  r12, r12, r14
    addi r8, r8, 1
    cmp  r8, r2
    blt  count_loop
    stx  r12, [r7+r1]     ; publish the count
    bra  forever
)";

class StreamingWorkload final : public WindowedWorkloadBase {
 public:
  /// Control-flow shape of the per-window kernel (see the section comment).
  enum class Shape { kClassic, kUniform };

  StreamingWorkload(const WorkloadParams& params, Shape shape)
      : WindowedWorkloadBase(params), shape_(shape) {
    const std::string_view source =
        shape_ == Shape::kClassic ? kStreamingSource : kStreamingUniformSource;
    const std::string_view what = name();
    plain_ = assemble_or_throw(
        kernels::preprocess_sync_markers(source, false), what);
    instrumented_ = assemble_or_throw(
        kernels::preprocess_sync_markers(source, true), what);
  }

  [[nodiscard]] std::string_view name() const override {
    return shape_ == Shape::kClassic ? "streaming" : "streaming.uniform";
  }
  [[nodiscard]] const assembler::Program& program(
      bool instrumented) const override {
    return instrumented ? instrumented_ : plain_;
  }

  [[nodiscard]] std::string verify(const sim::Platform& platform) const override {
    if (windows_run_ != windows()) {
      return std::string(name()) + ": only " + std::to_string(windows_run_) +
             " of " + std::to_string(windows()) + " windows completed";
    }
    // Check the published counts of the final window against the host-side
    // mirror of the kernel.
    const unsigned last = windows() - 1;
    for (unsigned c = 0; c < num_cores(); ++c) {
      const unsigned expected = shape_ == Shape::kClassic
                                    ? expected_crossings(c, last)
                                    : expected_uniform_count(c, last);
      const std::uint16_t got = platform.dm_read(kStreamResultBase + c);
      if (got != expected) {
        std::ostringstream err;
        err << name() << " channel " << c << ": got " << got
            << " crossings, expected " << expected;
        return err.str();
      }
    }
    return {};
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> report(
      const sim::Platform& platform) const override {
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("windows", std::to_string(windows_run_));
    out.emplace_back("busy_cycles", std::to_string(busy_cycles_));
    std::string counts;
    for (unsigned c = 0; c < num_cores(); ++c) {
      if (c) counts += ' ';
      counts += std::to_string(platform.dm_read(kStreamResultBase + c));
    }
    out.emplace_back("counts", counts);
    return out;
  }

 protected:
  [[nodiscard]] unsigned window_length() const override {
    return shape_ == Shape::kClassic ? kStreamWindow : kStreamUniformWindow;
  }
  [[nodiscard]] std::uint32_t channel_base(unsigned core) const override {
    return kernels::channel_base(core);
  }

 private:
  [[nodiscard]] unsigned expected_crossings(unsigned channel,
                                            unsigned window) const {
    const auto& stream = channel_samples(channel);
    const auto* samples = stream.data() + window * kStreamWindow;
    unsigned sum = 0;
    for (unsigned i = 0; i < kStreamWindow; ++i) sum += samples[i];
    const unsigned threshold = sum / kStreamWindow + kStreamThresholdDelta;
    unsigned crossings = 0;
    unsigned i = 0;
    while (i < kStreamWindow) {
      if (samples[i] >= threshold) {
        ++crossings;
        i += 10;
      } else {
        ++i;
      }
    }
    return crossings;
  }

  [[nodiscard]] unsigned expected_uniform_count(unsigned channel,
                                                unsigned window) const {
    const auto& stream = channel_samples(channel);
    const auto* samples = stream.data() + window * kStreamUniformWindow;
    unsigned sum = 0;
    for (unsigned i = 0; i < kStreamUniformWindow; ++i) sum += samples[i];
    const unsigned threshold =
        (sum >> 7) + kStreamThresholdDelta;  // mean of 128 + delta
    unsigned count = 0;
    for (unsigned i = 0; i < kStreamUniformWindow; ++i) {
      count += samples[i] >= threshold;
    }
    return count;
  }

  Shape shape_;
  assembler::Program plain_;
  assembler::Program instrumented_;
};

// --- sleepgen: the wide-platform duty-cycled scaling workload ----------------
// Sleep-heavy generator workload for core counts beyond the synchronizer's
// 8-core ceiling (run it with DesignVariant::xbar_only). Each core owns a
// private DM bank; per acquisition window the host deposits ECG-generator
// samples, wakes every core by interrupt, and each core runs a
// straight-line feature chain over its window — the cores stay in natural
// lockstep (uniform control flow), exercising the platform's broadcast
// fetch, straight-line steps and O(active) scheduling at 16/32/64 cores —
// then publishes a checksum and goes back to sleep.

constexpr unsigned kSleepGenWindow = 128;    ///< samples per window
constexpr unsigned kSleepGenBankWords = 512; ///< smaller banks: 64 cores fit
                                             ///< the 16-bit address space
constexpr unsigned kSleepGenChannelBank = 4; ///< first per-core bank
constexpr std::uint16_t kSleepGenResultBase = 1024;  ///< bank 2: result[core]

constexpr std::string_view kSleepGenSource = R"(
    csrr r1, #0           ; core id
    addi r4, r1, 4
    movi r5, 9
    sll  r3, r4, r5       ; channel base = (4 + id) * 512
    movi r2, 128          ; window length
    movi r7, 1024         ; shared result block
forever:
    sleep                 ; wait for the window interrupt
    movi r8, 0            ; i
    movi r9, 0            ; checksum
loop:
    ldx  r10, [r3+r8]
; --- straight-line feature chain (the burst showcase) ---
    slli r11, r10, 1
    add  r11, r11, r10    ; 3x
    srli r11, r11, 2
    xori r12, r10, 90
    add  r12, r12, r11
    slli r13, r12, 3
    srli r13, r13, 5
    xor  r12, r12, r13
    andi r12, r12, 0x7FF
    add  r9, r9, r12
    addi r9, r9, 1
    stx  r12, [r3+r8]     ; processed sample back in place
    addi r8, r8, 1
    cmp  r8, r2
    blt  loop
    stx  r9, [r7+r1]      ; publish the window checksum
    bra  forever
)";

/// Host mirror of the kernel's per-sample chain (16-bit semantics).
std::uint16_t sleepgen_feature(std::uint16_t x) {
  auto r11 = static_cast<std::uint16_t>(x << 1);
  r11 = static_cast<std::uint16_t>(r11 + x);
  r11 = static_cast<std::uint16_t>(r11 >> 2);
  auto r12 = static_cast<std::uint16_t>(x ^ 90);
  r12 = static_cast<std::uint16_t>(r12 + r11);
  auto r13 = static_cast<std::uint16_t>(r12 << 3);
  r13 = static_cast<std::uint16_t>(r13 >> 5);
  r12 = static_cast<std::uint16_t>(r12 ^ r13);
  return static_cast<std::uint16_t>(r12 & 0x7FF);
}

class SleepGenWorkload final : public WindowedWorkloadBase {
 public:
  explicit SleepGenWorkload(const WorkloadParams& params)
      : WindowedWorkloadBase(params) {
    if (params_.num_channels < 1 ||
        params_.num_channels > sim::EventCounters::kMaxCores) {
      throw std::runtime_error(
          "sleepgen: num_channels must be in [1, " +
          std::to_string(sim::EventCounters::kMaxCores) + "], got " +
          std::to_string(params_.num_channels));
    }
    program_ = assemble_or_throw(
        kernels::preprocess_sync_markers(kSleepGenSource, false), "sleepgen");
  }

  [[nodiscard]] std::string_view name() const override { return "sleepgen"; }
  [[nodiscard]] const assembler::Program& program(
      bool instrumented) const override {
    (void)instrumented;  // single source, no sync points: one program
    return program_;
  }

  /// Wide-platform geometry: one small private bank per core so loads are
  /// conflict-free and every address fits the cores' 16-bit registers.
  [[nodiscard]] sim::PlatformConfig base_config(
      bool with_synchronizer) const override {
    sim::PlatformConfig config = Workload::base_config(with_synchronizer);
    config.dm_banks = kSleepGenChannelBank + params_.num_channels;
    config.dm_bank_words = kSleepGenBankWords;
    return config;
  }

  [[nodiscard]] std::string verify(const sim::Platform& platform) const override {
    if (windows_run_ != windows()) {
      return "sleepgen: only " + std::to_string(windows_run_) + " of " +
             std::to_string(windows()) + " windows completed";
    }
    const unsigned last = windows() - 1;
    for (unsigned c = 0; c < num_cores(); ++c) {
      const auto& samples = channel_samples(c);
      std::uint16_t checksum = 0;
      for (unsigned i = 0; i < kSleepGenWindow; ++i) {
        const std::uint16_t raw = samples[last * kSleepGenWindow + i];
        const std::uint16_t processed = sleepgen_feature(raw);
        checksum = static_cast<std::uint16_t>(checksum + processed + 1);
        const std::uint16_t got = platform.dm_read(channel_base(c) + i);
        if (got != processed) {
          std::ostringstream err;
          err << "sleepgen channel " << c << " sample " << i << ": got " << got
              << ", expected " << processed;
          return err.str();
        }
      }
      const std::uint16_t got = platform.dm_read(kSleepGenResultBase + c);
      if (got != checksum) {
        std::ostringstream err;
        err << "sleepgen channel " << c << ": checksum " << got
            << ", expected " << checksum;
        return err.str();
      }
    }
    return {};
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> report(
      const sim::Platform& /*platform*/) const override {
    // Host fast-path statistics (Platform::burst_cycles) stay out of the
    // record: they differ by execution mode, and the record must not.
    return {{"windows", std::to_string(windows_run_)}};
  }

 protected:
  [[nodiscard]] unsigned window_length() const override {
    return kSleepGenWindow;
  }
  [[nodiscard]] std::uint32_t channel_base(unsigned core) const override {
    return (kSleepGenChannelBank + core) * kSleepGenBankWords;
  }

 private:
  assembler::Program program_;
};

}  // namespace

// (See workload.h.)
void deposit_window(const WindowedDrive& drive, unsigned window,
                    sim::Platform& platform) {
  drive.deposit(window, [&platform](std::uint32_t addr,
                                    std::span<const std::uint16_t> words) {
    for (std::size_t i = 0; i < words.size(); ++i)
      platform.dm_write(addr + static_cast<std::uint32_t>(i), words[i]);
  });
}

// (See workload.h.) The single source of truth for the duty-cycled window
// sequencing: the scalar engine, the checkpoint-ring drive and the batch
// engine's fallback path all run windows through this loop, which is what
// keeps their results bit-identical.
sim::RunResult drive_windowed(const WindowedDrive& drive,
                              sim::Platform& platform,
                              std::uint64_t max_cycles,
                              std::optional<unsigned> resume_window,
                              CheckpointSink* sink) {
  sim::RunResult result;
  unsigned start_window = 0;
  if (resume_window) {
    // The platform is already at this window's all-asleep boundary (a
    // checkpoint restore or a batch-lane materialization) and the host
    // words have been adopted by the caller.
    start_window = *resume_window;
    result.status = sim::RunResult::Status::kAllAsleep;
    result.cycles = platform.counters().cycles;
  } else {
    drive.adopt_host_words({});
    result = platform.run(
        std::min<std::uint64_t>(max_cycles, drive.initial_bound()));
  }
  for (unsigned w = start_window; w < drive.windows(); ++w) {
    if (result.status != sim::RunResult::Status::kAllAsleep) return result;
    deposit_window(drive, w, platform);
    const std::uint64_t before = platform.counters().cycles;
    platform.interrupt_all();
    result = platform.run(std::min(max_cycles, before + drive.window_budget()));
    drive.note_window(platform.counters().cycles - before);
    if (sink != nullptr && result.status == sim::RunResult::Status::kAllAsleep) {
      sink->offer(platform, drive.host_words());
    }
  }
  return result;
}

// (See workload.h.)
sim::RunResult Workload::drive(
    sim::Platform& platform, std::uint64_t max_cycles, CheckpointSink* sink,
    std::span<const std::uint64_t> resume_host_words) const {
  if (const WindowedDrive* windowed = windowed_drive()) {
    std::optional<unsigned> resume;
    if (resume_host_words.size() == 2) {
      // Restored at a window boundary: all cores asleep,
      // `resume_host_words[0]` windows already processed.
      windowed->adopt_host_words(resume_host_words);
      resume = static_cast<unsigned>(resume_host_words[0]);
    }
    return drive_windowed(*windowed, platform, max_cycles, resume, sink);
  }
  if (sink == nullptr) return platform.run(max_cycles);
  for (;;) {
    const std::uint64_t stop = std::min(
        max_cycles, std::max(platform.counters().cycles + 1, sink->next_due()));
    const sim::RunResult result = platform.run(stop);
    if (result.status != sim::RunResult::Status::kMaxCycles) return result;
    if (platform.counters().cycles >= max_cycles) return result;
    sink->offer(platform, {});
  }
}

unsigned count_sync_points(const assembler::Program& program) {
  unsigned count = 0;
  for (const auto& instr : program.code) {
    count += (instr.op == isa::Opcode::kSinc);
  }
  return count;
}

std::shared_ptr<const Workload> make_asm_workload(const AsmWorkloadDesc& desc,
                                                  const WorkloadParams& params) {
  return std::make_shared<AsmWorkload>(desc, params);
}

void register_asm_workload(Registry& registry, AsmWorkloadDesc desc) {
  std::string name = desc.name;
  registry.add(std::move(name),
               [desc = std::move(desc)](const WorkloadParams& params) {
                 return make_asm_workload(desc, params);
               });
}

void register_asm_workload(
    Registry& registry, std::string name,
    std::function<AsmWorkloadDesc(const WorkloadParams&)> build) {
  if (!build) {
    throw std::invalid_argument("workload '" + name +
                                "' has no desc builder");
  }
  registry.add(std::move(name),
               [build = std::move(build)](const WorkloadParams& params) {
                 return make_asm_workload(build(params), params);
               });
}

void register_builtin_workloads(Registry& registry) {
  for (const auto kind : kernels::kAllBenchmarks) {
    registry.add(BenchmarkWorkload::benchmark_name_lower(kind),
                 [kind](const WorkloadParams& params) {
                   return std::make_shared<const BenchmarkWorkload>(
                       kind, params, /*auto_instrumented=*/false);
                 });
    registry.add(BenchmarkWorkload::benchmark_name_lower(kind) + ".auto",
                 [kind](const WorkloadParams& params) {
                   return std::make_shared<const BenchmarkWorkload>(
                       kind, params, /*auto_instrumented=*/true);
                 });
  }
  registry.add("clip8", [](const WorkloadParams& params) {
    return make_asm_workload(clip8_desc(params), params);
  });
  registry.add("bandcount", [](const WorkloadParams& params) {
    return make_asm_workload(bandcount_desc(params, false), params);
  });
  registry.add("bandcount.auto", [](const WorkloadParams& params) {
    return make_asm_workload(bandcount_desc(params, true), params);
  });
  registry.add("streaming", [](const WorkloadParams& params) {
    return std::make_shared<const StreamingWorkload>(
        params, StreamingWorkload::Shape::kClassic);
  });
  registry.add("streaming.uniform", [](const WorkloadParams& params) {
    return std::make_shared<const StreamingWorkload>(
        params, StreamingWorkload::Shape::kUniform);
  });
  // Wide-platform scaling workloads: "sleepgen" takes its core count from
  // params.num_channels (1..64); the fixed-width aliases pin the paper-plus
  // scaling points. Run the >8-core variants with a synchronizer-less
  // design (DesignVariant::xbar_only) — the checkpoint word caps the
  // synchronizer at 8 cores.
  registry.add("sleepgen", [](const WorkloadParams& params) {
    return std::make_shared<const SleepGenWorkload>(params);
  });
  for (const unsigned cores : {16u, 32u, 64u}) {
    registry.add("sleepgen" + std::to_string(cores),
                 [cores](const WorkloadParams& params) {
                   WorkloadParams fixed = params;
                   fixed.num_channels = cores;
                   return std::make_shared<const SleepGenWorkload>(fixed);
                 });
  }
}

}  // namespace ulpsync::scenario
