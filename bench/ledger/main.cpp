// dmv_ledger — interaction ledger benchmark. See README.md beside this
// file for the workloads, the metrics and their bounds.
//
//   dmv_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out results.json] [--trace-file trace.json]
//              [--golden golden.json] [--benchmark BENCHMARK.json]
//              [--commit ID] [--baseline]
//   dmv_ledger --smoke              toy sizes, all workloads, < 10 s
//   dmv_ledger --reference --golden-out PATH
//
// A workload run is one seeded sequence of about --seconds of work, cut
// into kParts consecutive parts; each part runs in a child process of its
// own, one after the other, with a fresh server. The parent pools their
// samples. The last line on stdout is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json declares (its
// end_to_end list with --trace 0, its per_layer list with --trace 1).
// Exit status is nonzero when any response is an error or its checksum
// or counts differ from the golden reference.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dmv/par/par.hpp"
#include "harness.hpp"

extern char** environ;

namespace ledger {
namespace {

namespace fs = std::filesystem;
using dmv::json::Value;

constexpr const char* kResultsSchema = "dmv-ledger-results/2";
constexpr int kParts = 3;
constexpr double kSloMs = 100.0;
constexpr std::size_t kProbeStates = 8;

#ifndef DMV_LEDGER_BUILD_TYPE
#define DMV_LEDGER_BUILD_TYPE "unknown"
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  bool smoke = false;
  bool reference = false;
  bool baseline = false;
  std::string work_dir;
  std::string out;
  std::string trace_file;
  std::string golden = "bench/ledger/golden.json";
  std::string benchmark = "BENCHMARK.json";
  std::string golden_out;
  std::string commit = "unknown";
  // Child roles.
  std::string fill_disk_dir;
  std::string part_out;
  int part = 0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dmv_ledger --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out PATH] [--trace-file PATH] [--golden PATH] "
               "[--benchmark PATH] [--commit ID] [--baseline] "
               "[--work-dir DIR]\n"
               "       dmv_ledger --smoke\n"
               "       dmv_ledger --reference --golden-out PATH\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--golden") {
      options.golden = value();
    } else if (arg == "--benchmark") {
      options.benchmark = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--baseline") {
      options.baseline = true;
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--reference") {
      options.reference = true;
    } else if (arg == "--golden-out") {
      options.golden_out = value();
    } else if (arg == "--fill-disk") {
      options.fill_disk_dir = value();
    } else if (arg == "--part-out") {
      options.part_out = value();
    } else if (arg == "--part") {
      options.part = std::stoi(value());
    } else {
      usage();
    }
  }
  if (options.seconds <= 0 || options.part < 0 || options.part >= kParts) {
    usage();
  }
  return options;
}

/// The flags that make a child build the same workload (part 0 unless
/// the caller adds --part).
std::vector<std::string> workload_args(const Options& options) {
  std::vector<std::string> args = {"--workload", options.workload, "--seed",
                                   std::to_string(options.seed), "--seconds",
                                   std::to_string(options.seconds)};
  if (options.smoke) args.push_back("--smoke");
  return args;
}

/// Runs this binary again with `args` and waits for it.
int run_self(const std::vector<std::string>& args) {
  std::vector<std::string> owned = {"/proc/self/exe"};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    throw std::runtime_error("cannot re-execute dmv_ledger");
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Fills `dir` with the workload's bookmarks in a child process, as a
/// separate warm-up job would.
void fill_disk_in_child(const Options& options, const std::string& dir) {
  fs::remove_all(dir);
  std::vector<std::string> args = workload_args(options);
  args.insert(args.end(), {"--fill-disk", dir});
  if (run_self(args) != 0) throw std::runtime_error("disk fill failed");
}

/// Creates the run's scratch directory; removes it when the run ends.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    if (path_.empty()) {
      path_ = ".bench_build/ledger-work/" + std::to_string(::getpid());
    }
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- one part (child process) -----------------------------------------

Value metrics_json(const std::vector<Metric>& metrics) {
  Value array = Value::make_array();
  for (const Metric& metric : metrics) {
    Value m = Value::make_array();
    m.push(Value::of(metric.name));
    m.push(Value::of(metric.value));
    m.push(Value::of(metric.unit));
    m.push(Value::of(metric.samples));
    array.push(std::move(m));
  }
  return array;
}

/// Child entry: set-up (with the disk fill in a grandchild), then the
/// measured part; writes what the parent aggregates to --part-out.
int main_part(const Options& options) {
  WorkDir dir(options.work_dir);
  const Workload workload =
      make_workload(options.workload, options.seed, options.seconds,
                    options.part, kParts, options.smoke);
  std::string disk_dir;
  if (!workload.bookmarks.empty()) {
    disk_dir = dir.path() + "/disk";
    fill_disk_in_child(options, disk_dir);
  }
  auto server = start_server(workload, disk_dir);
  Value part = Value::make_object();
  part["ready_ns"] = Value::of(steady_ns());
  const ServedRun run = run_served(workload, *server);
  const double rss_mb = peak_rss_mb();
  server.reset();

  part["wall_s"] = Value::of(run.wall_s);
  part["rss_mb"] = Value::of(rss_mb);
  Value samples = Value::make_array();
  for (const Sample& sample : run.samples) {
    Value s = Value::make_array();
    s.push(Value::of(sample.client));
    s.push(Value::of(static_cast<std::int64_t>(sample.index)));
    s.push(Value::of(sample.latency_ms));
    s.push(Value::of(sample.lag_ms));
    s.push(Value::of(sample.error));
    s.push(Value::of(sample.answer));
    s.push(Value::of(sample.served_by));
    s.push(Value::of(sample.coalesced));
    samples.push(std::move(s));
  }
  part["samples"] = std::move(samples);
  part["layers"] = metrics_json(served_layers(run));
  std::ofstream out(options.part_out);
  out << dmv::json::dump(part) << "\n";
  return out ? 0 : 1;
}

// --- the workload run (parent process) --------------------------------

struct Part {
  double setup_s = 0;
  double wall_s = 0;
  double rss_mb = 0;
  std::vector<Sample> samples;
  std::vector<Metric> layers;
};

/// Runs part `p` in a child. Its set-up time runs from spawn to the first
/// measured request.
Part run_part(const Options& options, const std::string& dir, int p) {
  const std::string part_dir = dir + "/part" + std::to_string(p);
  const std::string part_out = part_dir + ".json";
  std::vector<std::string> args = workload_args(options);
  args.insert(args.end(), {"--part", std::to_string(p), "--work-dir",
                           part_dir, "--part-out", part_out});
  const std::int64_t spawned_ns = steady_ns();
  if (run_self(args) != 0) {
    throw std::runtime_error("part " + std::to_string(p) + " failed");
  }
  std::ifstream in(part_out);
  std::ostringstream text;
  text << in.rdbuf();
  fs::remove(part_out);
  const Value doc = dmv::json::parse(text.str());
  Part part;
  part.setup_s =
      static_cast<double>(doc.at("ready_ns").as_int() - spawned_ns) / 1e9;
  part.wall_s = doc.at("wall_s").as_number();
  part.rss_mb = doc.at("rss_mb").as_number();
  for (const Value& s : doc.at("samples").as_array()) {
    Sample sample;
    sample.client = static_cast<int>(s.array[0].as_int());
    sample.index = static_cast<std::size_t>(s.array[1].as_int());
    sample.latency_ms = s.array[2].as_number();
    sample.lag_ms = s.array[3].as_number();
    sample.error = s.array[4].as_bool();
    sample.answer = s.array[5].as_string();
    sample.served_by = s.array[6].as_string();
    sample.coalesced = s.array[7].as_bool();
    part.samples.push_back(std::move(sample));
  }
  for (const Value& m : doc.at("layers").as_array()) {
    part.layers.push_back({m.array[0].as_string(), m.array[1].as_number(),
                           m.array[2].as_string(), m.array[3].as_int()});
  }
  return part;
}

/// Expected answers of `states`. Smoke runs recompute them for their toy
/// sizes. Every other run reads the golden file, which must hold every
/// state: a missing answer is an error, never a recomputation with the
/// library under test.
Answers expected_answers(const Options& options, const Workload& workload,
                         const std::vector<StepState>& states) {
  if (options.smoke) {
    return reference_answers(workload, states, dmv::par::hardware_threads());
  }
  const std::map<std::string, Answers> golden = load_golden(options.golden);
  const auto found = golden.find(workload.name);
  const Answers& answers = found != golden.end() ? found->second : Answers{};
  for (const StepState& state : states) {
    const std::string key = state_key(state.program, state.binding);
    if (!answers.contains(key)) {
      throw std::runtime_error(options.golden + " has no " + workload.name +
                               " answer for '" + key +
                               "'; rewrite it with run.py --reference");
    }
  }
  return answers;
}

struct Outcome {
  std::vector<Metric> e2e;     ///< Every end-to-end metric.
  std::vector<Metric> layers;  ///< Per-layer metrics (traced runs).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Value detail = Value::make_object();
};

/// The metric names BENCHMARK.json declares. Its end_to_end list is what
/// the regression gate holds to a bound; README.md ("Metrics") says why
/// the other end-to-end metrics are left out of it.
struct Declared {
  std::vector<std::string> end_to_end, per_layer;
};

Declared load_declared(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const Value document = dmv::json::parse(text.str());
  Declared declared;
  for (const Value& metric : document.at("end_to_end").as_array()) {
    declared.end_to_end.push_back(metric.at("name").as_string());
  }
  for (const Value& metric : document.at("per_layer").as_array()) {
    declared.per_layer.push_back(metric.at("name").as_string());
  }
  return declared;
}

/// The metrics named in `names`, in that order; every one must exist.
std::vector<Metric> select(const std::vector<Metric>& metrics,
                           const std::vector<std::string>& names) {
  std::vector<Metric> selected;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(metrics.begin(), metrics.end(),
                     [&](const Metric& metric) { return metric.name == name; });
    if (it == metrics.end()) {
      throw std::runtime_error("BENCHMARK.json declares " + name +
                               ", which this run does not measure");
    }
    selected.push_back(*it);
  }
  return selected;
}

std::string unit_of(const std::string& name) {
  if (name == "sim.events") return "count";
  if (name == "store.artifact_kb") return "KiB";
  if (name.ends_with("_ratio")) return "ratio";
  return "ms";
}

Outcome run_workload(const Options& options, const std::string& dir) {
  // states[part][client][interaction]: what each step must evaluate.
  std::vector<Workload> workloads;
  std::vector<std::vector<std::vector<StepState>>> states;
  std::vector<StepState> all_states;
  for (int p = 0; p < kParts; ++p) {
    workloads.push_back(make_workload(options.workload, options.seed,
                                      options.seconds, p, kParts,
                                      options.smoke));
    states.emplace_back();
    for (const Script& script : workloads.back().clients) {
      states.back().push_back(step_states(workloads.back(), script));
      all_states.insert(all_states.end(), states.back().back().begin(),
                        states.back().back().end());
    }
  }
  const Workload& workload = workloads.front();
  const Answers expected = expected_answers(options, workload, all_states);
  const auto answer_ok = [&](const StepState& state,
                             const std::string& answer) {
    const auto it = expected.find(state_key(state.program, state.binding));
    return it != expected.end() && it->second == answer;
  };

  std::vector<Part> parts;
  for (int p = 0; p < kParts; ++p) parts.push_back(run_part(options, dir, p));
  const auto state_of = [&](std::size_t p, const Sample& sample)
      -> const StepState& {
    return states[p][static_cast<std::size_t>(sample.client)][sample.index];
  };

  // The correctness gate and the latencies, pooled over every part. The
  // traced replay repeats part 0's client 0.
  Outcome outcome;
  std::vector<double> latencies, throughputs, setups, rss;
  double replayed_untraced_ms = 0;
  std::int64_t within_slo = 0, replayed_untraced = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const Sample& sample : parts[p].samples) {
      const bool ok =
          !sample.error && answer_ok(state_of(p, sample), sample.answer);
      latencies.push_back(sample.latency_ms);
      ++outcome.attempted;
      if (!ok) ++outcome.failed;
      if (ok && sample.latency_ms <= kSloMs) ++within_slo;
      if (p == 0 && sample.client == 0) {
        replayed_untraced_ms += sample.latency_ms;
        ++replayed_untraced;
      }
    }
    throughputs.push_back(static_cast<double>(parts[p].samples.size()) /
                          parts[p].wall_s);
    setups.push_back(parts[p].setup_s);
    rss.push_back(parts[p].rss_mb);
  }
  const auto n = static_cast<std::int64_t>(latencies.size());
  const double attempted = static_cast<double>(std::max<std::int64_t>(1, n));
  // The tail: p99 on the open loop, whose four clients give about 2000
  // samples; p95 on the one-client loops, whose shortest (drag-hdiff)
  // gives about 550.
  outcome.e2e = {
      {"latency_p50_ms", percentile(latencies, 0.50), "ms", n},
      workload.open_loop
          ? Metric{"latency_p99_ms", percentile(latencies, 0.99), "ms", n}
          : Metric{"latency_p95_ms", percentile(latencies, 0.95), "ms", n},
      {"throughput_per_s", median(throughputs), "1/s", kParts},
      {"slo_ratio", static_cast<double>(within_slo) / attempted, "ratio", n},
      {"failed_ratio", static_cast<double>(outcome.failed) / attempted,
       "ratio", n},
      {"setup_s", median(setups), "s", kParts},
      {"peak_rss_mb", median(rss), "MB", kParts},
  };

  if (options.trace) {
    // Per-layer numbers of the served run: the median over the parts.
    std::map<std::string, std::vector<double>> layer_values;
    for (const Part& part : parts) {
      for (const Metric& metric : part.layers) {
        layer_values[metric.name].push_back(metric.value);
      }
    }
    for (const Metric& metric : parts[0].layers) {
      outcome.layers.push_back({metric.name, median(layer_values[metric.name]),
                                metric.unit, metric.samples});
    }

    // The traced replay of part 0's client 0, after the same warm-up a
    // served run gets.
    start_server(workload, "").reset();
    std::string replay_disk;
    if (!workload.bookmarks.empty()) {
      replay_disk = dir + "/disk-traced";
      fill_disk_in_child(options, replay_disk);
    }
    Recorder recorder(Clock::now());
    const TracedReport traced =
        run_traced(workload, expected, recorder, replay_disk);
    outcome.failed += traced.mismatches;
    outcome.attempted += traced.replayed;
    const double untraced_mean =
        replayed_untraced_ms /
        std::max<double>(1.0, static_cast<double>(replayed_untraced));
    for (const auto& [name, value] : traced.metrics) {
      outcome.layers.push_back({name, value, unit_of(name), traced.replayed});
    }
    outcome.layers.push_back(
        {"trace.gap_ms",
         untraced_mean - traced.metrics.at("trace.layer_sum_ms"), "ms",
         traced.replayed});
    outcome.detail["untraced_mean_ms"] = Value::of(untraced_mean);
    if (!options.trace_file.empty() &&
        !recorder.write_chrome(options.trace_file)) {
      throw std::runtime_error("cannot write " + options.trace_file);
    }

    std::vector<StepState> computed;
    std::set<std::string> seen;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      for (const Sample& sample : parts[p].samples) {
        const StepState& state = state_of(p, sample);
        if (sample.served_by == "compute" &&
            seen.insert(state_key(state.program, state.binding)).second) {
          computed.push_back(state);
        }
      }
    }
    for (const auto& [name, value] :
         run_probes(workload, computed, states[0][0],
                    options.smoke ? 2 : kProbeStates)) {
      outcome.layers.push_back(
          {name, value, unit_of(name),
           static_cast<std::int64_t>(computed.size())});
    }
  }
  std::sort(outcome.layers.begin(), outcome.layers.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  Value runs = Value::make_array();
  for (const Part& part : parts) {
    Value r = Value::make_object();
    r["setup_s"] = Value::of(part.setup_s);
    r["wall_s"] = Value::of(part.wall_s);
    r["rss_mb"] = Value::of(part.rss_mb);
    r["interactions"] =
        Value::of(static_cast<std::int64_t>(part.samples.size()));
    runs.push(std::move(r));
  }
  outcome.detail["parts"] = std::move(runs);
  return outcome;
}

Value metric_json(const Metric& metric) {
  Value m = Value::make_object();
  m["value"] = Value::of(metric.value);
  m["unit"] = Value::of(metric.unit);
  m["samples"] = Value::of(metric.samples);
  return m;
}

Value results_document(const Options& options, const Outcome& outcome,
                       const Declared& declared) {
  Value doc = Value::make_object();
  doc["schema"] = Value::of(kResultsSchema);
  doc["workload"] = Value::of(options.workload);
  doc["seed"] = Value::of(static_cast<std::int64_t>(options.seed));
  doc["seconds"] = Value::of(options.seconds);
  doc["parts"] = Value::of(kParts);
  doc["mode"] = Value::of(options.trace ? "traced" : "untraced");
  doc["baseline"] = Value::of(options.baseline);
  Value hardware = Value::make_object();
  hardware["hardware_threads"] = Value::of(dmv::par::hardware_threads());
  hardware["pool_threads"] = Value::of(dmv::par::num_threads());
  hardware["cpu"] = Value::of(cpu_model());
  doc["hardware"] = std::move(hardware);
  Value build = Value::make_object();
#ifdef __VERSION__
  build["compiler"] = Value::of(__VERSION__);
#endif
  build["build_type"] = Value::of(DMV_LEDGER_BUILD_TYPE);
  build["assertions"] = Value::of(kAssertions);
  build["commit"] = Value::of(options.commit);
  doc["build"] = std::move(build);
  doc["correct"] = Value::of(outcome.failed == 0);
  doc["attempted"] = Value::of(outcome.attempted);
  doc["failed"] = Value::of(outcome.failed);
  Value e2e = Value::make_object();
  for (const Metric& metric : outcome.e2e) {
    Value m = metric_json(metric);
    m["better"] = Value::of(metric.name == "throughput_per_s" ||
                                    metric.name == "slo_ratio"
                                ? "higher"
                                : "lower");
    m["gated"] = Value::of(std::ranges::find(declared.end_to_end,
                                             metric.name) !=
                           declared.end_to_end.end());
    e2e[metric.name] = std::move(m);
  }
  doc["end_to_end"] = std::move(e2e);
  Value layers = Value::make_object();
  for (const Metric& metric : outcome.layers) {
    layers[metric.name] = metric_json(metric);
  }
  doc["per_layer"] = std::move(layers);
  doc["detail"] = outcome.detail;
  return doc;
}

/// The result line: exactly correct, attempted, failed and `metrics`.
std::string result_line(const Outcome& outcome,
                        const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line.precision(17);
  line << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    line << (i ? ", " : "") << dmv::json::escape(metric.name)
         << ": {\"value\": " << metric.value
         << ", \"unit\": " << dmv::json::escape(metric.unit) << "}";
  }
  line << "}}";
  return line.str();
}

void print_table(const std::string& workload, const Outcome& outcome) {
  std::fprintf(stderr, "dmv_ledger %s: %lld attempted, %lld failed\n",
               workload.c_str(), static_cast<long long>(outcome.attempted),
               static_cast<long long>(outcome.failed));
  for (const auto* list : {&outcome.e2e, &outcome.layers}) {
    for (const Metric& metric : *list) {
      std::fprintf(stderr, "  %-32s %14.4f %-6s (n=%lld)\n",
                   metric.name.c_str(), metric.value, metric.unit.c_str(),
                   static_cast<long long>(metric.samples));
    }
  }
}

int main_workload(const Options& options) {
  if (options.baseline && kAssertions) {
    std::fprintf(stderr,
                 "dmv_ledger: refusing to record a baseline from a build with "
                 "assertions on (NDEBUG unset)\n");
    return 2;
  }
  const Declared declared = load_declared(options.benchmark);
  WorkDir dir(options.work_dir);
  const Outcome outcome = run_workload(options, dir.path());
  print_table(options.workload, outcome);
  const std::vector<Metric> reported =
      options.trace ? select(outcome.layers, declared.per_layer)
                    : select(outcome.e2e, declared.end_to_end);
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << dmv::json::dump(results_document(options, outcome, declared))
        << "\n";
    if (!out) throw std::runtime_error("cannot write " + options.out);
  }
  std::cout << result_line(outcome, reported) << std::endl;
  return outcome.failed == 0 ? 0 : 1;
}

int main_smoke(Options options) {
  WorkDir dir(options.work_dir);
  options.smoke = true;
  options.seconds = 0.6;
  int status = 0;
  for (const std::string& name : workload_names()) {
    options.workload = name;
    for (const bool trace : {false, true}) {
      options.trace = trace;
      const Outcome outcome = run_workload(options, dir.path());
      print_table(name + (trace ? " (traced)" : ""), outcome);
      if (outcome.failed != 0 || outcome.attempted == 0) status = 1;
    }
  }
  std::fprintf(stderr, "dmv_ledger --smoke: %s\n", status ? "FAILED" : "ok");
  return status;
}

int main_reference(const Options& options) {
  if (options.golden_out.empty()) usage();
  std::map<std::string, Answers> golden;
  for (const std::string& name : workload_names()) {
    const Workload workload = make_workload(name, 1, 1, 0, 1, false);
    const auto begin = Clock::now();
    golden[name] = reference_answers(workload, workload.space,
                                     dmv::par::hardware_threads());
    std::fprintf(stderr, "dmv_ledger --reference %s: %zu states in %.1f s\n",
                 name.c_str(), golden[name].size(),
                 ms_between(begin, Clock::now()) / 1000.0);
  }
  save_golden(options.golden_out, golden);
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  try {
    const Options options = parse_options(argc, argv);
    // The server default: the pool spans every hardware thread.
    dmv::par::set_num_threads(dmv::par::hardware_threads());
    if (options.smoke && options.workload.empty()) return main_smoke(options);
    if (options.reference) return main_reference(options);
    if (options.workload.empty()) usage();
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end()) {
      std::fprintf(stderr, "dmv_ledger: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    if (!options.fill_disk_dir.empty()) {
      fill_disk(make_workload(options.workload, options.seed, options.seconds,
                              0, kParts, options.smoke),
                options.fill_disk_dir);
      return 0;
    }
    if (!options.part_out.empty()) return main_part(options);
    return main_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dmv_ledger: %s\n", error.what());
    return 1;
  }
}
