#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Open::Open(Tracer& tracer, std::string name, bool extra)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span& span = tracer.spans_.emplace_back();
  span.name = std::move(name);
  span.parent =
      tracer.open_.empty() ? -1 : static_cast<int>(tracer.open_.back());
  span.extra = extra;
  tracer.open_.push_back(index_);
  // Clocks last, so the recorder's own bookkeeping stays outside the span.
  span.wall_begin = wall_seconds();
  span.cpu_begin = thread_cpu_seconds();
}

Tracer::Open::~Open() {
  const double cpu_end = thread_cpu_seconds();
  const double wall_end = wall_seconds();
  Span& span = tracer_.spans_[index_];
  span.cpu_end = cpu_end;
  span.wall_end = wall_end;
  tracer_.open_.pop_back();
}

std::map<std::string, LayerTime> Tracer::layers() const {
  std::vector<double> child_cpu(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cpu[static_cast<std::size_t>(span.parent)] += span.cpu();
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& layer = layers[spans_[i].name];
    layer.calls += 1;
    layer.total_cpu += spans_[i].cpu();
    layer.self_cpu += spans_[i].cpu() - child_cpu[i];
  }
  return layers;
}

double Tracer::program_cpu() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && !span.extra) total += span.cpu();
  }
  return total;
}

std::string Tracer::chrome_json(const std::string& title) const {
  // Complete ("X") events on one thread track; the viewer nests them by
  // time. Span names are plain identifiers, so nothing needs escaping.
  const double origin = spans_.empty() ? 0.0 : spans_.front().wall_begin;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 1, \"args\": {\"name\": \"" + title + "\"}}";
  char event[512];
  for (const Span& span : spans_) {
    std::snprintf(event, sizeof event,
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"cpu_ms\": %.6f}}",
                  span.name.c_str(), span.extra ? "extra" : "program",
                  (span.wall_begin - origin) * 1e6,
                  (span.wall_end - span.wall_begin) * 1e6, span.cpu() * 1e3);
    out += event;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
