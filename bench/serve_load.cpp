// Serving-layer load generator: N concurrent clients dragging the same
// program against one dmv::serve::Server, measuring per-step latency
// (p50/p99), cross-session cache hit rate, and request coalescing.
//
// The run doubles as a correctness gate: every step response checksum
// must equal a serial single-session Session driving the same drag
// sequence — the serving determinism contract at each thread count.
// A violated gate (or a zero cross-session hit rate, or coalescing
// that never collapses anything) exits nonzero so CI fails.
//
// Results are MERGED into BENCH_sweep.json as a "serve" section:
// sweep_throughput writes the file first in CI; this binary replaces
// any existing "serve" section (idempotent reruns) or creates the file
// if it runs alone.
//
// Usage: serve_load [--smoke]
//   --smoke   gates only, no BENCH_sweep.json update.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dmv::json::Value;

constexpr int kClients = 8;

double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// The drag: K swept up, partially back (revisits), then further — the
/// realistic slider profile that exercises cold, warm, and delta paths.
std::vector<std::int64_t> drag_values() {
  return {6, 7, 8, 9, 10, 9, 8, 11, 12, 10, 7, 13};
}

std::string open_request(int client) {
  return "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":"
         "\"client" +
         std::to_string(client) +
         "\",\"workload\":\"hdiff\",\"binding\":{\"I\":16,\"J\":16,\"K\":5}}}";
}

std::string step_request(int client, std::int64_t value) {
  return "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"client" +
         std::to_string(client) + "\",\"symbol\":\"K\",\"value\":" +
         std::to_string(value) + "}}";
}

std::vector<std::string> reference_checksums(
    const std::vector<std::int64_t>& values) {
  dmv::session::Session session(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline));
  session.set_binding({{"I", 16}, {"J", 16}, {"K", 5}});
  std::vector<std::string> checksums;
  for (const std::int64_t value : values) {
    session.set_symbol("K", value);
    checksums.push_back(
        std::to_string(dmv::serve::result_checksum(*session.metrics())));
  }
  return checksums;
}

struct LoadResult {
  int threads = 0;
  std::int64_t requests = 0;
  std::int64_t coalesced = 0;
  std::int64_t shared_steps = 0;  ///< Steps served by the shared tier.
  std::int64_t compute_steps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_ms = 0;
  double shared_hit_rate = 0;
  bool checksums_identical = false;
};

LoadResult run_load(int threads) {
  dmv::par::ThreadScope scope(threads);
  const std::vector<std::int64_t> values = drag_values();
  const std::vector<std::string> reference = reference_checksums(values);

  dmv::serve::Server server;
  for (int c = 0; c < kClients; ++c) server.handle(open_request(c));

  std::mutex merge_mutex;
  std::vector<double> latencies;
  LoadResult load;
  load.threads = threads;
  load.checksums_identical = true;

  const Clock::time_point wall_begin = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> local_latencies;
      std::int64_t shared_steps = 0, compute_steps = 0;
      bool identical = true;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const Clock::time_point begin = Clock::now();
        const std::string line = server.handle(step_request(c, values[i]));
        local_latencies.push_back(ms_between(begin, Clock::now()));
        const Value response = dmv::json::parse(line);
        if (!response.has("result")) {
          identical = false;
          continue;
        }
        const Value& result = response.at("result");
        if (result.at("checksum").as_string() != reference[i]) {
          identical = false;
        }
        const std::string& served_by = result.at("served_by").as_string();
        if (served_by == "shared_cache") ++shared_steps;
        if (served_by == "compute") ++compute_steps;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
      load.shared_steps += shared_steps;
      load.compute_steps += compute_steps;
      if (!identical) load.checksums_identical = false;
    });
  }
  for (std::thread& client : clients) client.join();
  load.wall_ms = ms_between(wall_begin, Clock::now());

  std::sort(latencies.begin(), latencies.end());
  load.requests = static_cast<std::int64_t>(latencies.size());
  load.p50_ms = latencies[latencies.size() / 2];
  load.p99_ms = latencies[(latencies.size() * 99) / 100];
  load.coalesced = server.stats().coalesced;
  load.shared_hit_rate =
      static_cast<double>(load.shared_steps) /
      static_cast<double>(load.requests);
  return load;
}

/// Replaces (or appends) the "serve" section of BENCH_sweep.json
/// without disturbing sweep_throughput's sections.
void merge_into_sweep_json(const std::string& serve_section) {
  const char* path = "BENCH_sweep.json";
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  const std::string marker = ",\n  \"serve\": {";
  if (const std::size_t at = existing.find(marker);
      at != std::string::npos) {
    existing.resize(at);  // Idempotent rerun: drop the old section.
  } else if (const std::size_t brace = existing.rfind('}');
             brace != std::string::npos) {
    existing.resize(brace);
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
  } else {
    existing = "{\n  \"benchmark\": \"serve_load\"";
  }
  std::ofstream out(path);
  out << existing << ",\n  \"serve\": {" << serve_section << "\n  }\n}\n";
}

std::string format_run(const LoadResult& load) {
  std::ostringstream out;
  out << "\n    {\n"
      << "      \"threads\": " << load.threads << ",\n"
      << "      \"clients\": " << kClients << ",\n"
      << "      \"requests\": " << load.requests << ",\n"
      << "      \"step_p50_ms\": " << load.p50_ms << ",\n"
      << "      \"step_p99_ms\": " << load.p99_ms << ",\n"
      << "      \"wall_ms\": " << load.wall_ms << ",\n"
      << "      \"compute_steps\": " << load.compute_steps << ",\n"
      << "      \"shared_cache_steps\": " << load.shared_steps << ",\n"
      << "      \"shared_hit_rate\": " << load.shared_hit_rate << ",\n"
      << "      \"coalesced\": " << load.coalesced << ",\n"
      << "      \"checksums_identical\": "
      << (load.checksums_identical ? "true" : "false") << "\n"
      << "    }";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int hw = dmv::par::hardware_threads();
  std::vector<LoadResult> runs;
  runs.push_back(run_load(1));
  if (hw > 1) runs.push_back(run_load(std::min(8, hw)));

  bool gates_ok = true;
  for (const LoadResult& load : runs) {
    std::printf(
        "serve_load threads=%d clients=%d requests=%lld p50=%.3fms "
        "p99=%.3fms shared_hit_rate=%.3f compute=%lld coalesced=%lld "
        "identical=%s\n",
        load.threads, kClients, static_cast<long long>(load.requests),
        load.p50_ms, load.p99_ms, load.shared_hit_rate,
        static_cast<long long>(load.compute_steps),
        static_cast<long long>(load.coalesced),
        load.checksums_identical ? "yes" : "NO");
    if (!load.checksums_identical) {
      std::fprintf(stderr,
                   "serve_load: GATE FAILED (threads=%d): server checksums "
                   "diverge from the single-session reference\n",
                   load.threads);
      gates_ok = false;
    }
    if (load.shared_steps <= 0) {
      std::fprintf(stderr,
                   "serve_load: GATE FAILED (threads=%d): cross-session "
                   "cache hit rate is zero\n",
                   load.threads);
      gates_ok = false;
    }
    // Coalescing + caching must collapse work: with 8 clients on one
    // drag sequence, simulations must stay below total requests.
    if (load.compute_steps >= load.requests) {
      std::fprintf(stderr,
                   "serve_load: GATE FAILED (threads=%d): every request "
                   "simulated — no coalescing or sharing happened\n",
                   load.threads);
      gates_ok = false;
    }
  }
  if (!gates_ok) return 1;
  if (smoke) return 0;

  std::ostringstream section;
  section << "\n  \"benchmark\": \"serve_load\",\n"
          << "  \"workload\": \"hdiff I=16 J=16, K drag x"
          << drag_values().size() << "\",\n  \"runs\": [";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r) section << ",";
    section << format_run(runs[r]);
  }
  section << "\n  ]";
  // The section goes under the "serve" key; re-indent is already baked
  // into the strings above.
  merge_into_sweep_json(section.str());
  std::printf("serve_load: BENCH_sweep.json updated\n");
  return 0;
}
