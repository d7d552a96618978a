#pragma once

// The ledger's measuring parts: the served run, the correctness reference,
// and the traced replay with its probes.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dmv/serve/server.hpp"
#include "ledger.hpp"

namespace ledger {

/// A reported number with its unit and how many samples it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Linear-interpolated percentile, q in [0, 1]; 0 for no values.
double percentile(std::vector<double> values, double q);

/// What the correctness gate compares for one step: the response's
/// checksum (a decimal string) and the counts beside it.
std::string step_answer(const std::string& checksum, std::int64_t executions,
                        std::int64_t cache_misses,
                        std::int64_t movement_bytes);

// --- served run (serve_run.cpp) ----------------------------------------

/// One measured interaction as the client saw it.
struct Sample {
  int client = 0;
  std::size_t index = 0;  ///< Interaction index in the client's script.
  double latency_ms = 0;  ///< From send (closed loop) or due time (open).
  double lag_ms = 0;      ///< Open loop: send time minus due time.
  bool error = false;     ///< Some line of the interaction got an error.
  std::string answer;     ///< step_answer() of the step response.
  std::string served_by;
  bool coalesced = false;
};

/// SessionStats summed over the measured client sessions, as the
/// protocol's `stats` method reports them.
struct SessionCounters {
  double hits = 0, misses = 0, shared_hits = 0, evictions = 0;
  double prefetch_issued = 0, prefetch_hits = 0;
  double steps_full_hit = 0, steps_chunk_delta = 0, steps_cold = 0;
  double simulate_ms = 0, metrics_ms = 0;
  double metric_partitions = 0;  ///< Largest last-evaluation value.
};

struct ServedRun {
  std::vector<Sample> samples;
  double wall_s = 0;
  dmv::serve::ServerStats server_before, server_after;
  dmv::session::SharedCacheStats shared_before, shared_after;
  SessionCounters sessions;
};

/// A server with the defaults (pool = hardware threads, delta, streaming
/// and prefetch on, 256 MiB shared and 64 MiB session tiers), every client
/// session opened and subscribed, and the warm-up done. `disk_dir`
/// enables the disk tier.
std::unique_ptr<dmv::serve::Server> start_server(const Workload& workload,
                                                 const std::string& disk_dir);

/// Drives every client script against `server`, one thread per client.
ServedRun run_served(const Workload& workload, dmv::serve::Server& server);

/// Per-layer numbers the served run yields: latency by serving path,
/// server, session and shared-tier counters, disk-tier counters and the
/// open loop's lag.
std::vector<Metric> served_layers(const ServedRun& run);

/// Computes every bookmark into `disk_dir` through a server with the disk
/// tier on (the revisit-disk filler process).
void fill_disk(const Workload& workload, const std::string& disk_dir);

// --- correctness reference (reference.cpp) ------------------------------

/// The state of every interaction's step in a script.
std::vector<StepState> step_states(const Workload& workload,
                                   const Script& script);

/// state_key -> step_answer: what a step at that state must return.
using Answers = std::map<std::string, std::string>;

/// Expected answer of every state, each computed by a lone Session with
/// prefetch off, no shared tier and a single-threaded pool. Distinct
/// states are split into contiguous runs over `threads` such sessions.
Answers reference_answers(const Workload& workload,
                          const std::vector<StepState>& states,
                          int threads);

/// Golden file: {"schema", "workloads": {name: {key: answer}}}, the
/// reference answers of every workload's whole state space. Loading
/// throws when the file is missing or has another schema.
std::map<std::string, Answers> load_golden(const std::string& path);
void save_golden(const std::string& path,
                 const std::map<std::string, Answers>& golden);

// --- traced replay and probes (traced.cpp) ------------------------------

/// In-memory span store; written as Chrome trace-event JSON at exit.
class Recorder {
 public:
  struct Span {
    const char* name;
    int request;
    int depth;
    Clock::time_point begin, end;
  };
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}
  void add(const char* name, int request, int depth, Clock::time_point begin,
           Clock::time_point end) {
    spans_.push_back(Span{name, request, depth, begin, end});
  }
  /// Writes {"traceEvents": [...]} with complete ("X") events in µs.
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct TracedReport {
  std::map<std::string, double> metrics;  ///< Per-layer name -> value.
  std::int64_t replayed = 0;
  std::int64_t mismatches = 0;  ///< Replay answers off the reference.
};

/// Replays client 0's interactions through a Session wired like the
/// server's (fresh shared tier, same codec and a freshly filled disk
/// directory when `disk_dir` is set), recording one root span per
/// interaction with its layer children.
TracedReport run_traced(const Workload& workload, const Answers& expected,
                        Recorder& recorder, const std::string& disk_dir);

/// Isolated public calls of the sim, analysis and store layers on up to
/// `max_states` sampled computed states, plus run_delta along the first
/// steps of the script.
std::map<std::string, double> run_probes(const Workload& workload,
                                         const std::vector<StepState>& computed,
                                         const std::vector<StepState>& sequence,
                                         std::size_t max_states);

}  // namespace ledger
