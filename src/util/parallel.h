#pragma once

/// The project's one worker pool: an atomic index handed out to a fixed
/// set of threads. Sweeps (`scenario::Engine`), the batch engine, fault
/// campaigns and spool drains all run their items through it.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace ulpsync::util {

/// Threads to run `work_items` items on: `jobs`, or one per hardware core
/// when `jobs` is 0, never more than there are items, and at least one.
[[nodiscard]] inline unsigned resolve_jobs(unsigned jobs,
                                           std::size_t work_items) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(work_items, 1)));
}

/// Runs `body(index)` for every index in [0, count) on
/// `resolve_jobs(jobs, count)` threads; indices are handed out in
/// ascending order. A single thread runs the loop inline.
template <typename Body>
void parallel_for(std::size_t count, unsigned jobs, const Body& body) {
  jobs = resolve_jobs(jobs, count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= count) return;
      body(index);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
}

}  // namespace ulpsync::util
