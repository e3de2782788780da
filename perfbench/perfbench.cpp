// perfbench: the measuring program of the repository benchmark. run.py
// builds it and relays its result; README.md describes the protocol.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   perfbench --workload NAME --seed N --reference --out-dir DIR
//
// The set-up runs kSetupSamples times, each in a forked copy of the fresh
// process, then once for real. Every timed trial runs in its own forked
// copy of the set-up process, so it does the work of one tool invocation
// and inherits no cache or heap state from the trial before. The forked
// set-ups and trials are bound to the usable CPUs in turn. With
// --trace 1 a traced run follows the trials, in this process. The last
// line on stdout is the JSON result; --reference prints the CSV digest of
// the reference path instead, which kPinnedDigests holds for the default
// seed.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;
// A set-up takes milliseconds at most, so many cold samples are cheap.
constexpr unsigned kSetupSamples = 24;
constexpr std::size_t kMinTrials = 5;
// Trials stop after this much wall time whatever --seconds asks, so a run
// stays well inside the 180 s it may take.
constexpr double kMaxTrialSeconds = 120.0;

// CSV digest of each workload's output at kDefaultSeed, in Kind order, as
// --reference prints it (the cohort's from the scalar Engine).
constexpr std::uint64_t kPinnedDigests[] = {
    0x375ef55df48ee77cULL, 0x6d2911ba4ec44614ULL, 0x1578271bc698d0ebULL,
    0x8776268d9cd815a5ULL};

struct Metric {
  std::string name;
  std::string unit;
};

// The --trace 0 metrics, as BENCHMARK.json lists them.
std::vector<Metric> end_to_end_metrics() {
  return {{"mcyc_per_cpu_s", "Mcyc/cpu-s"},
          {"setup_s", "s"},
          {"peak_rss_mb", "MB"}};
}

// The --trace 1 metrics, as BENCHMARK.json lists them.
std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> metrics = {
      {"build.cpu_s", "s"},
      {"load.cpu_s", "s"},
      {"simulate.cpu_s", "s"},
      {"simulate_bare.cpu_s", "s"},
      {"finish.cpu_s", "s"},
      {"serialize.cpu_s", "s"},
      {"sim.cycles", "cycles"},
      {"sim.fetch_region_cycles", "cycles"},
      {"sim.burst_cycles", "cycles"},
      {"sim.ff_cycles", "cycles"},
      {"batch.cpu_s", "s"},
      {"batch.groups", "count"},
      {"batch.batched_runs", "count"},
      {"batch.scalar_runs", "count"},
      {"batch.diverged_lanes", "count"},
      {"batch.group_bails", "count"},
      {"batch.emulated_instructions", "count"},
      {"batch.batched_share", "ratio"},
      {"spool.plan_cpu_s", "s"},
      {"spool.work_cpu_s", "s"},
      {"spool.merge_cpu_s", "s"},
      {"spool.rows", "count"},
      {"campaign.record_cpu_s", "s"},
      {"campaign.rig_cpu_s", "s"},
      {"campaign.clean_replay_cpu_s", "s"},
  };
  const std::vector<std::string> models = campaign_model_names();
  for (const std::string& model : models) {
    metrics.push_back({"campaign.trial_cpu_s." + model, "s"});
  }
  for (const std::string& model : models) {
    for (const char* outcome : {"masked", "detected", "sdc", "other"}) {
      metrics.push_back({"campaign.outcome." + model + "." + outcome, "count"});
    }
  }
  metrics.push_back({"faults_per_cpu_s", "1/cpu-s"});
  metrics.push_back({"fail_ratio", "ratio"});
  metrics.push_back({"trace.overhead_cpu_s", "s"});
  return metrics;
}

// What a forked child reports through its pipe.
struct Report {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t csv_digest = 0;
  std::uint64_t json_digest = 0;
  Tally tally;
  char error[512] = {};  // empty when the child succeeded
};
static_assert(std::is_trivially_copyable_v<Report>);

void set_error(Report& report, const std::string& message) {
  std::snprintf(report.error, sizeof report.error, "%s", message.c_str());
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* at = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, at, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* at = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, at, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// The CPUs this process may run on. Forked set-ups and trials take them in
// turn: on a shared host each CPU's speed drifts on its own, and a run the
// scheduler kept on one CPU would see only that CPU's drift.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// Runs `body` in a forked copy of this process, bound to `cpu` unless it is
// negative, and returns its report. The child leaves through _exit, so it
// neither flushes this process's stdio buffers a second time nor runs its
// destructors.
template <typename Body>
Report in_child(int cpu, const Body& body) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    const int error = errno;
    close(fds[0]);
    close(fds[1]);
    throw std::system_error(error, std::generic_category(), "fork");
  }
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      (void)sched_setaffinity(0, sizeof set, &set);  // best effort
    }
    Report report;
    try {
      body(report);
    } catch (const std::exception& error) {
      set_error(report, error.what());
    } catch (...) {
      set_error(report, "unknown exception");
    }
    _exit(write_all(fds[1], &report, sizeof report) ? 0 : 1);
  }
  close(fds[1]);
  Report report;
  const bool complete = read_all(fds[0], &report, sizeof report);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report = Report{};
    set_error(report, "the child process died");
  }
  return report;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
  std::string out_dir = ".bench_build/out";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args.reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value after " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// The traced run's per-layer self-time table, largest first.
void print_layers(const Tracer& tracer, double untraced_cpu) {
  const std::map<std::string, LayerTime> layers = tracer.layers();
  std::vector<std::pair<std::string, LayerTime>> rows(layers.begin(),
                                                      layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_cpu > b.second.self_cpu;
  });
  double all = 0.0;
  for (const auto& row : rows) all += row.second.self_cpu;
  std::printf("%-30s %7s %10s %10s %7s\n", "span", "calls", "total_s",
              "self_s", "self_%");
  for (const auto& [name, layer] : rows) {
    std::printf("%-30s %7zu %10.4f %10.4f %7.2f\n", name.c_str(), layer.calls,
                layer.total_cpu, layer.self_cpu,
                all > 0.0 ? 100.0 * layer.self_cpu / all : 0.0);
  }
  std::printf("traced program %.4f s CPU, untraced trial median %.4f s\n",
              tracer.program_cpu(), untraced_cpu);
}

// Per-layer values of a traced run: self CPU time per layer, plus the
// exact counters.
std::map<std::string, double> layer_values(const Tracer& tracer,
                                           const Counters& counters) {
  std::map<std::string, double> values(counters.begin(), counters.end());
  const std::map<std::string, LayerTime> layers = tracer.layers();
  const auto self = [&](const std::string& span) {
    const auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.self_cpu;
  };
  for (const char* stage :
       {"build", "load", "simulate", "simulate_bare", "finish", "serialize"}) {
    values[std::string(stage) + ".cpu_s"] = self(stage);
  }
  values["batch.cpu_s"] = self("batch");
  for (const char* step : {"plan", "work", "merge"}) {
    values["spool." + std::string(step) + "_cpu_s"] =
        self("spool." + std::string(step));
  }
  for (const char* step : {"record", "rig", "clean_replay"}) {
    values["campaign." + std::string(step) + "_cpu_s"] =
        self("campaign." + std::string(step));
  }
  for (const std::string& model : campaign_model_names()) {
    values["campaign.trial_cpu_s." + model] = self("campaign.trial." + model);
  }
  return values;
}

int run(const Args& args) {
  const std::optional<Kind> kind = parse_kind(args.workload);
  if (!kind) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const Seeds seeds = derive_seeds(args.seed);
  const std::string work = args.out_dir + "/work-" + std::to_string(getpid());
  fs::create_directories(work);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } const remove_work{work};

  if (args.reference) {
    const Setup setup = make_setup(*kind, seeds);
    const Output output = run_reference(setup, work + "/reference");
    std::printf("%s seed %llu csv_digest %s\n", kind_name(*kind),
                static_cast<unsigned long long>(args.seed),
                hex(digest(output.csv)).c_str());
    return 0;
  }

  const std::vector<int> cpus = usable_cpus();
  const auto cpu_for = [&](std::size_t turn) {
    return cpus.empty() ? -1 : cpus[turn % cpus.size()];
  };

  // Set-up: cold in forked copies of this fresh process, then for real.
  std::vector<double> setup_cpu;
  for (unsigned i = 0; i < kSetupSamples; ++i) {
    const Report report = in_child(cpu_for(i), [&](Report& child) {
      const double start = thread_cpu_seconds();
      const Setup setup = make_setup(*kind, seeds);
      child.cpu_s = thread_cpu_seconds() - start;
    });
    if (report.error[0] != '\0') {
      throw std::runtime_error(std::string("set-up failed: ") + report.error);
    }
    setup_cpu.push_back(report.cpu_s);
  }
  const double setup_start = thread_cpu_seconds();
  const Setup setup = make_setup(*kind, seeds);
  setup_cpu.push_back(thread_cpu_seconds() - setup_start);

  std::vector<std::string> problems;
  if (std::string problem = check_setup(setup); !problem.empty()) {
    problems.push_back(std::move(problem));
  }

  // Timed trials, each in a forked copy of the set-up process.
  std::vector<Report> trials;
  const double phase_start = wall_seconds();
  while (trials.size() < kMinTrials ||
         wall_seconds() - phase_start < args.seconds) {
    if (wall_seconds() - phase_start > kMaxTrialSeconds) break;
    const std::string dir = work + "/trial-" + std::to_string(trials.size());
    const bool first = trials.empty();
    trials.push_back(in_child(cpu_for(trials.size()), [&](Report& child) {
      const double start = thread_cpu_seconds();
      const Output output = run_trial(setup, dir);
      child.cpu_s = thread_cpu_seconds() - start;
      child.peak_rss_mb = peak_rss_mb();
      child.csv_digest = digest(output.csv);
      child.json_digest = digest(output.json);
      child.tally = tally(setup, output.csv);
      if (first) set_error(child, cross_check(setup, output));
    }));
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }

  // Every trial must write the same bytes: the pinned digest at the default
  // seed, the first trial's at any other. A mismatch fails all its rows.
  const std::uint64_t expected =
      args.seed == kDefaultSeed
          ? kPinnedDigests[static_cast<std::size_t>(*kind)]
          : trials.front().csv_digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> cpu;
  std::vector<double> rss;
  // Throughputs are the good trials' summed work over their summed CPU
  // time, not a median over trials: on a shared host a trial runs either at
  // full speed or about 1.5x slower, and a median over such trials jumps
  // between the two from run to run, while the sum moves with their mix.
  double sum_cpu = 0.0;
  double sum_cycles = 0.0;
  double sum_classified = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Report& trial = trials[i];
    const std::uint64_t ops = std::max<std::uint64_t>(trial.tally.attempted, 1);
    attempted += ops;
    std::string problem = trial.error;
    if (problem.empty() && trial.csv_digest != expected) {
      problem = "output digest " + hex(trial.csv_digest) + ", expected " +
                hex(expected);
    } else if (problem.empty() &&
               trial.json_digest != trials.front().json_digest) {
      problem = "JSON output differs from the first trial's";
    }
    if (!problem.empty()) {
      problems.push_back("trial " + std::to_string(i) + ": " + problem);
      failed += ops;
      continue;
    }
    failed += trial.tally.failed;
    cpu.push_back(trial.cpu_s);
    rss.push_back(trial.peak_rss_mb);
    sum_cpu += trial.cpu_s;
    sum_cycles += static_cast<double>(trial.tally.sim_cycles);
    sum_classified += static_cast<double>(trial.tally.classified);
  }
  const double trial_cpu = median(cpu);
  std::printf("%s seed %llu: %zu trials, median %.4f s CPU per trial, "
              "set-up %.6f s; trial CPU s:",
              kind_name(*kind), static_cast<unsigned long long>(args.seed),
              trials.size(), trial_cpu, median(setup_cpu));
  for (const double trial : cpu) std::printf(" %.3f", trial);
  std::printf("\n");

  std::map<std::string, double> values = {
      {"mcyc_per_cpu_s", sum_cpu > 0.0 ? sum_cycles / 1e6 / sum_cpu : 0.0},
      {"setup_s", median(setup_cpu)},
      {"peak_rss_mb", median(rss)}};
  if (args.trace) {
    Tracer tracer;
    Counters counters;
    try {
      const Output traced =
          run_traced(setup, work + "/traced", tracer, counters);
      const Tally counts = tally(setup, traced.csv);
      attempted += counts.attempted;
      if (digest(traced.csv) != expected) {
        problems.push_back("traced run: output digest " +
                           hex(digest(traced.csv)) + ", expected " +
                           hex(expected));
        failed += counts.attempted;
      } else {
        failed += counts.failed;
      }
    } catch (const std::exception& error) {
      problems.push_back(std::string("traced run: ") + error.what());
      attempted += 1;
      failed += 1;
    }
    const std::string name = kind_name(*kind);
    const std::string seed = std::to_string(args.seed);
    const std::string trace_path =
        args.out_dir + "/trace-" + name + "-seed" + seed + ".json";
    write_text(trace_path, tracer.chrome_json(name + " seed " + seed));
    print_layers(tracer, trial_cpu);
    // Exact counters: deterministic for a seed, compared for equality.
    for (const auto& [counter, value] : counters) {
      std::printf("must-match %-40s %s\n", counter.c_str(),
                  number(value).c_str());
    }
    std::printf("trace written to %s\n", trace_path.c_str());
    values = layer_values(tracer, counters);
    values["trace.overhead_cpu_s"] = tracer.program_cpu() - trial_cpu;
    values["faults_per_cpu_s"] = sum_cpu > 0.0 ? sum_classified / sum_cpu : 0.0;
  }
  values["fail_ratio"] =
      static_cast<double>(failed) /
      static_cast<double>(std::max<std::uint64_t>(attempted, 1));

  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  std::string result = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto it = values.find(metrics[i].name);
    result += (i == 0 ? "\"" : ", \"") + metrics[i].name +
              "\": {\"value\": " +
              number(it == values.end() ? 0.0 : it->second) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
