// The measured phase: client scripts sent as request lines into an
// in-process dmv::serve::Server, one client per thread.

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "harness.hpp"

namespace ledger {

namespace {

using dmv::json::Value;

std::string checked(dmv::serve::Server& server, const std::string& line) {
  std::string response = server.handle(line);
  if (dmv::json::parse(response).has("error")) {
    throw std::runtime_error("set-up request failed: " + response);
  }
  return response;
}

void open_client(const Workload& workload, dmv::serve::Server& server,
                 const std::string& session) {
  checked(server, open_line(workload, session));
  checked(server, subscribe_line(workload, session));
}

/// Reads the fields the ledger checks from the interaction's responses.
void read_responses(const std::vector<std::string>& responses, Sample& sample) {
  for (const std::string& line : responses) {
    const Value response = dmv::json::parse(line);
    if (response.has("error") || !response.has("result")) {
      sample.error = true;
      continue;
    }
    const Value& result = response.at("result");
    if (result.has("checksum")) {
      sample.answer = step_answer(result.at("checksum").as_string(),
                                  result.at("executions").as_int(),
                                  result.at("cache_misses").as_int(),
                                  result.at("movement_bytes").as_int());
      sample.served_by = result.at("served_by").as_string();
      sample.coalesced = result.at("coalesced").as_bool();
    }
  }
}

/// One client's loop. Closed loop: an interaction is due when the previous
/// one returned, and its latency counts from its send. Open loop: each
/// interaction waits for its due time and its latency counts from then.
/// Either way the lag is how late the client sent.
std::vector<Sample> run_client(const Workload& workload,
                               dmv::serve::Server& server, int client,
                               Clock::time_point start) {
  const Script& script = workload.clients[static_cast<std::size_t>(client)];
  std::vector<Sample> samples;
  samples.reserve(script.interactions.size());
  std::vector<std::string> responses;
  Clock::time_point due = start;
  for (std::size_t i = 0; i < script.interactions.size(); ++i) {
    const Interaction& interaction = script.interactions[i];
    Sample sample;
    sample.client = client;
    sample.index = i;
    if (workload.open_loop) {
      due = start + from_ms(interaction.due_ms);
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point sent = Clock::now();
    responses.clear();
    for (const std::string& line : interaction.lines) {
      responses.push_back(server.handle(line));
    }
    const Clock::time_point done = Clock::now();
    sample.latency_ms = ms_between(workload.open_loop ? due : sent, done);
    sample.lag_ms = ms_between(due, sent);
    read_responses(responses, sample);
    samples.push_back(std::move(sample));
    if (!workload.open_loop) due = done;
  }
  return samples;
}

SessionCounters session_counters(const Workload& workload,
                                 dmv::serve::Server& server) {
  SessionCounters sum;
  for (const Script& client : workload.clients) {
    const Value response = dmv::json::parse(server.handle(
        "{\"id\":0,\"method\":\"stats\",\"params\":{\"session\":\"" +
        client.session + "\"}}"));
    const Value& s = response.at("result").at("session");
    sum.hits += s.at("hits").as_number();
    sum.misses += s.at("misses").as_number();
    sum.shared_hits += s.at("shared_hits").as_number();
    sum.evictions += s.at("evictions").as_number();
    sum.prefetch_issued += s.at("prefetch_issued").as_number();
    sum.prefetch_hits += s.at("prefetch_hits").as_number();
    sum.steps_full_hit += s.at("steps_full_hit").as_number();
    sum.steps_chunk_delta += s.at("steps_chunk_delta").as_number();
    sum.steps_cold += s.at("steps_cold").as_number();
    sum.simulate_ms += s.at("simulate_ms").as_number();
    sum.metrics_ms += s.at("metrics_ms").as_number();
    sum.metric_partitions = std::max(sum.metric_partitions,
                                     s.at("metric_partitions").as_number());
  }
  return sum;
}

}  // namespace

std::string step_answer(const std::string& checksum, std::int64_t executions,
                        std::int64_t cache_misses,
                        std::int64_t movement_bytes) {
  return checksum + " executions=" + std::to_string(executions) +
         " cache_misses=" + std::to_string(cache_misses) +
         " movement_bytes=" + std::to_string(movement_bytes);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(values.size() - 1, low + 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

std::vector<Metric> served_layers(const ServedRun& run) {
  // Latency by how the step was served: from the session's own tier, from
  // the shared tier (RAM or disk), computed here, or coalesced onto
  // another session's computation of the same key.
  std::map<std::string, std::vector<double>> by_path;
  std::vector<double> lags;
  for (const Sample& sample : run.samples) {
    by_path[sample.coalesced ? "coalesced" : sample.served_by].push_back(
        sample.latency_ms);
    lags.push_back(sample.lag_ms);
  }
  const auto path_p50 = [&](const char* name, const char* path) {
    const std::vector<double>& values = by_path[path];
    return Metric{name, percentile(values, 0.5), "ms",
                  static_cast<std::int64_t>(values.size())};
  };
  const auto delta = [](auto after, auto before) {
    return static_cast<double>(after - before);
  };
  const SessionCounters& s = run.sessions;
  const auto& before = run.shared_before;
  const auto& after = run.shared_after;
  const double shared_hits = delta(after.hits, before.hits);
  const double shared_misses = delta(after.misses, before.misses);
  const double shared_lookups = shared_hits + shared_misses;
  const double computed = s.steps_cold + s.steps_chunk_delta;
  const auto n = static_cast<std::int64_t>(run.samples.size());
  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  return {
      path_p50("serve.hit_p50_ms", "cache"),
      path_p50("serve.shared_p50_ms", "shared_cache"),
      path_p50("serve.compute_p50_ms", "compute"),
      path_p50("serve.coalesced_p50_ms", "coalesced"),
      {"serve.coalesced",
       delta(run.server_after.coalesced, run.server_before.coalesced), "count",
       n},
      {"serve.errors", delta(run.server_after.errors, run.server_before.errors),
       "count", n},
      {"par.busy_fallbacks",
       delta(run.server_after.pool_busy_fallbacks,
             run.server_before.pool_busy_fallbacks),
       "count", n},
      {"session.hits", s.hits, "count", n},
      {"session.misses", s.misses, "count", n},
      {"session.shared_hits", s.shared_hits, "count", n},
      {"session.evictions", s.evictions, "count", n},
      {"session.prefetch_issued", s.prefetch_issued, "count", n},
      {"session.prefetch_hits", s.prefetch_hits, "count", n},
      {"session.prefetch_useful_ratio", per(s.prefetch_hits, s.prefetch_issued),
       "ratio", static_cast<std::int64_t>(s.prefetch_issued)},
      {"session.steps_cold", s.steps_cold, "count", n},
      {"session.steps_chunk_delta", s.steps_chunk_delta, "count", n},
      {"session.steps_full_hit", s.steps_full_hit, "count", n},
      {"session.metric_partitions", s.metric_partitions, "count", n},
      {"shared.hits", shared_hits, "count", n},
      {"shared.misses", shared_misses, "count", n},
      {"shared.evictions", delta(after.evictions, before.evictions), "count",
       n},
      {"shared.hit_ratio", per(shared_hits, shared_lookups), "ratio",
       static_cast<std::int64_t>(shared_lookups)},
      {"sim.simulate_ms", per(s.simulate_ms, computed), "ms",
       static_cast<std::int64_t>(computed)},
      {"sim.metrics_ms", per(s.metrics_ms, computed), "ms",
       static_cast<std::int64_t>(computed)},
      {"store.disk_hits", delta(after.disk_hits, before.disk_hits), "count", n},
      {"store.disk_misses", delta(after.disk_misses, before.disk_misses),
       "count", n},
      {"store.disk_writes", delta(after.disk_writes, before.disk_writes),
       "count", n},
      {"loadgen.lag_p99_ms", percentile(lags, 0.99), "ms", n},
  };
}

std::unique_ptr<dmv::serve::Server> start_server(const Workload& workload,
                                                 const std::string& disk_dir) {
  dmv::serve::ServerConfig config;
  config.shared_cache.disk_dir = disk_dir;
  auto server = std::make_unique<dmv::serve::Server>(config);
  for (const Script& client : workload.clients) {
    open_client(workload, *server, client.session);
  }
  open_client(workload, *server, "warm");
  for (const Op& op : workload.warmup) checked(*server, op_line(op, "warm"));
  return server;
}

ServedRun run_served(const Workload& workload, dmv::serve::Server& server) {
  ServedRun run;
  run.server_before = server.stats();
  run.shared_before = server.shared_cache_stats();
  const int clients = static_cast<int>(workload.clients.size());
  std::vector<std::vector<Sample>> per_client(workload.clients.size());
  // Open-loop clients share one origin a little in the future, so every
  // thread is waiting before the first due time.
  const Clock::time_point start =
      Clock::now() + (clients > 1 ? std::chrono::milliseconds(20)
                                  : std::chrono::milliseconds(0));
  if (clients == 1) {
    per_client[0] = run_client(workload, server, 0, start);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        per_client[static_cast<std::size_t>(c)] =
            run_client(workload, server, c, start);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  run.wall_s = ms_between(start, Clock::now()) / 1000.0;
  for (auto& samples : per_client) {
    for (Sample& sample : samples) run.samples.push_back(std::move(sample));
  }
  run.server_after = server.stats();
  run.shared_after = server.shared_cache_stats();
  run.sessions = session_counters(workload, server);
  return run;
}

void fill_disk(const Workload& workload, const std::string& disk_dir) {
  dmv::serve::ServerConfig config;
  config.shared_cache.disk_dir = disk_dir;
  dmv::serve::Server server(config);
  checked(server, open_line(workload, "fill"));
  for (const SymbolMap& bookmark : workload.bookmarks) {
    Op op;
    op.kind = Op::Kind::kStepBinding;
    op.binding = bookmark;
    checked(server, op_line(op, "fill"));
  }
}

}  // namespace ledger
