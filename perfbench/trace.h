#pragma once

/// Span recorder of the benchmark's traced run: one span per call into a
/// layer (name, wall interval, per-thread CPU time, enclosing span), kept
/// in memory and exported when the run ends.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CPU seconds the calling thread has consumed (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_seconds();
/// Monotonic wall-clock seconds.
[[nodiscard]] double wall_seconds();

/// One recorded call.
struct Span {
  std::string name;
  int parent = -1;     ///< index of the enclosing span; -1 at top level
  bool extra = false;  ///< work the traced run adds beside the program
  double wall_begin = 0.0;
  double wall_end = 0.0;
  double cpu_begin = 0.0;
  double cpu_end = 0.0;

  [[nodiscard]] double cpu() const { return cpu_end - cpu_begin; }
};

/// CPU time of every span with one name.
struct LayerTime {
  std::size_t calls = 0;
  double total_cpu = 0.0;  ///< summed span CPU time
  double self_cpu = 0.0;   ///< the same minus the CPU time of child spans
};

class Tracer {
 public:
  /// Runs `body` inside a span named `name` and returns what it returns.
  /// `extra` marks work the traced run adds beside the program; it is left
  /// out of `program_cpu`, so it never counts as tracing overhead.
  template <typename Body>
  decltype(auto) span(std::string name, Body&& body, bool extra = false) {
    const Open open(*this, std::move(name), extra);
    return body();
  }

  /// Total and self CPU time per span name.
  [[nodiscard]] std::map<std::string, LayerTime> layers() const;
  /// CPU time of the top-level spans that belong to the program.
  [[nodiscard]] double program_cpu() const;
  /// The spans as Chrome trace-event JSON (opens offline in Perfetto or
  /// chrome://tracing); `title` names the process track.
  [[nodiscard]] std::string chrome_json(const std::string& title) const;

 private:
  /// Opens a span on construction and closes it on destruction, so a
  /// throwing body still leaves a well-formed span stack.
  class Open {
   public:
    Open(Tracer& tracer, std::string name, bool extra);
    ~Open();
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the spans still open
};

}  // namespace perfbench
