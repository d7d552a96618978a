#include "dmv/serve/server.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/layout/layout.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/symbolic/expr.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::serve {

namespace {

using json::Value;

/// Dispatch-level failure with a protocol error code; everything a
/// handler throws is mapped onto one of these before it reaches the
/// response writer.
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

const Value& param(const Value& params, const char* name) {
  if (!params.has(name)) {
    throw RequestError("bad_request",
                       std::string("missing param '") + name + "'");
  }
  return params.at(name);
}

/// Integer param `name`, which must lie in [lo, hi].
std::int64_t ranged_int(const Value& params, const char* name,
                        std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = params.at(name).as_int();
  if (value < lo || value > hi) {
    throw RequestError("bad_request", std::string(name) + " must be in [" +
                                          std::to_string(lo) + ", " +
                                          std::to_string(hi) + "]");
  }
  return value;
}

symbolic::SymbolMap parse_binding(const Value& value) {
  if (value.type != Value::Type::Object) {
    throw RequestError("bad_request",
                       "binding must be an object of symbol -> integer");
  }
  symbolic::SymbolMap binding;
  for (const auto& [symbol, v] : value.object) binding[symbol] = v.as_int();
  return binding;
}

/// Every param `subscribe` reads. Anything else is refused, so a
/// misspelt or retired knob cannot silently leave its default in place.
constexpr std::array<std::string_view, 8> kSubscribeParams = {
    "session",       "cache_budget_bytes",   "line_size",
    "counts",        "miss_threshold_lines", "keep_distances",
    "element_stats", "movement"};

Value binding_json(const symbolic::SymbolMap& binding) {
  Value object = Value::make_object();
  for (const auto& [symbol, value] : binding) {
    object[symbol] = Value::of(value);
  }
  return object;
}

Value strings_json(const std::set<std::string>& strings) {
  Value array = Value::make_array();
  for (const std::string& s : strings) array.push(Value::of(s));
  return array;
}

/// One connected client: its Session plus the bookkeeping `subscribe`
/// needs to rebuild it. The mutex serializes this client's requests;
/// different clients' requests run concurrently.
struct Client {
  std::mutex mutex;
  std::string program_name;
  std::unique_ptr<session::Session> session;
};

/// An in-flight computation of one artifact key. The leader (first
/// requester) computes and publishes to the shared tier, then flips
/// `done`; followers wait here and are then served from the shared
/// tier — so exactly one simulation runs per distinct key no matter
/// how many sessions step onto it concurrently.
struct Flight {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
};

}  // namespace

struct Server::Impl {
  ServerConfig config;
  std::shared_ptr<session::SharedArtifactCache> shared;

  mutable std::mutex sessions_mutex;
  std::map<std::string, std::shared_ptr<Client>> sessions;

  /// Named workloads, each built on its first open; requests take
  /// copies, so sessions never share a program they can edit.
  std::mutex workloads_mutex;
  std::map<std::string, ir::Sdfg> workloads;

  std::mutex flights_mutex;
  std::unordered_map<session::ArtifactKey, std::shared_ptr<Flight>,
                     session::ArtifactKeyHash>
      flights;

  mutable std::mutex state_mutex;
  std::condition_variable drained;
  bool accepting = true;
  int in_flight = 0;
  std::int64_t requests = 0;
  std::int64_t errors = 0;
  std::int64_t steps = 0;
  std::int64_t coalesced = 0;

  explicit Impl(ServerConfig server_config)
      : config(std::move(server_config)) {
    if (!config.shared_cache.disk_dir.empty()) {
      // Persistent tier: register the codec for the metrics bundle —
      // the one artifact whose recomputation costs a simulation — so a
      // restarted server re-serves prior sweeps from the cache dir.
      config.shared_cache.codecs.emplace_back(
          session::metrics_artifact_kind(), store::pipeline_result_codec());
    }
    shared = std::make_shared<session::SharedArtifactCache>(
        config.shared_cache);
  }

  std::shared_ptr<Client> client_for(const std::string& name) {
    std::lock_guard<std::mutex> lock(sessions_mutex);
    auto it = sessions.find(name);
    if (it == sessions.end()) {
      throw RequestError("unknown_session", "no session named '" + name +
                                                "' — open_program first");
    }
    return it->second;
  }

  // --- Handlers (one per protocol method) ----------------------------

  ir::Sdfg named_workload(const std::string& name) {
    std::lock_guard<std::mutex> lock(workloads_mutex);
    auto it = workloads.find(name);
    if (it == workloads.end()) {
      it = workloads.emplace(name, workload_by_name(name)).first;
    }
    return it->second;
  }

  ir::Sdfg load_program(const Value& params, std::string* name_out) {
    if (params.has("workload")) {
      const std::string& name = params.at("workload").as_string();
      try {
        ir::Sdfg program = named_workload(name);
        *name_out = name;
        return program;
      } catch (const std::invalid_argument& error) {
        throw RequestError("bad_program", error.what());
      }
    }
    if (params.has("sdfg")) {
      try {
        ir::Sdfg program = ir::from_json(json::dump(params.at("sdfg")));
        ir::validate_or_throw(program);
        *name_out = program.name();
        return program;
      } catch (const std::runtime_error& error) {
        // ir::JsonError, or the list of validation issues.
        throw RequestError("bad_program", error.what());
      }
    }
    throw RequestError("bad_request",
                       "open_program needs 'workload' or 'sdfg'");
  }

  Value program_info(const Client& client) {
    Value result = Value::make_object();
    result["program"] = Value::of(client.program_name);
    result["program_hash"] =
        Value::of(hex64(client.session->metrics_cache_key().program_hash));
    result["symbols"] = strings_json(client.session->program().symbols());
    result["metric_symbols"] = strings_json(client.session->metric_symbols());
    return result;
  }

  Value do_open_program(const Value& params) {
    const std::string name = param(params, "session").as_string();
    auto client = std::make_shared<Client>();
    ir::Sdfg program = load_program(params, &client->program_name);
    session::SessionConfig session_config = config.session_defaults;
    session_config.shared_cache = shared;
    client->session = std::make_unique<session::Session>(
        std::move(program), std::move(session_config));
    if (params.has("binding")) {
      client->session->set_binding(parse_binding(params.at("binding")));
    }
    {
      std::lock_guard<std::mutex> lock(sessions_mutex);
      sessions[name] = client;  // Reopening replaces the old session.
    }
    return program_info(*client);
  }

  Value do_edit_program(const Value& params) {
    auto client = client_for(param(params, "session").as_string());
    std::lock_guard<std::mutex> lock(client->mutex);
    std::string name;
    ir::Sdfg program = load_program(params, &name);
    // set_program keeps the memoized artifacts of the old version
    // cached under its content hash — switching back stays cheap.
    client->session->set_program(std::move(program));
    client->program_name = name;
    return program_info(*client);
  }

  Value do_bind(const Value& params) {
    auto client = client_for(param(params, "session").as_string());
    std::lock_guard<std::mutex> lock(client->mutex);
    client->session->set_binding(parse_binding(param(params, "binding")));
    Value result = Value::make_object();
    result["binding"] = binding_json(client->session->binding());
    return result;
  }

  Value do_subscribe(const Value& params) {
    constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
    auto client = client_for(param(params, "session").as_string());
    std::lock_guard<std::mutex> lock(client->mutex);
    for (const auto& [name, value] : params.object) {
      if (std::find(kSubscribeParams.begin(), kSubscribeParams.end(), name) ==
          kSubscribeParams.end()) {
        throw RequestError("bad_request",
                           "unknown subscribe param '" + name + "'");
      }
    }
    session::SessionConfig cfg = client->session->config();
    cfg.shared_cache = shared;
    if (params.has("cache_budget_bytes")) {
      cfg.cache_budget_bytes = static_cast<std::size_t>(
          ranged_int(params, "cache_budget_bytes", 0, kInt64Max));
    }
    if (params.has("line_size")) {
      cfg.pipeline.line_size = static_cast<int>(ranged_int(
          params, "line_size", 1, std::numeric_limits<int>::max()));
    }
    if (params.has("counts")) cfg.pipeline.counts = params.at("counts").as_bool();
    if (params.has("miss_threshold_lines")) {
      cfg.pipeline.miss_threshold_lines =
          ranged_int(params, "miss_threshold_lines", 0, kInt64Max);
    }
    if (params.has("keep_distances")) {
      cfg.pipeline.keep_distances = params.at("keep_distances").as_bool();
    }
    if (params.has("element_stats")) {
      cfg.pipeline.element_stats = params.at("element_stats").as_bool();
    }
    if (params.has("movement")) {
      cfg.pipeline.movement = params.at("movement").as_bool();
    }
    if (cfg.pipeline.movement && cfg.pipeline.miss_threshold_lines <= 0) {
      throw RequestError("bad_request",
                         "movement needs miss_threshold_lines > 0");
    }
    // Every check above runs before this point, so a refused request
    // leaves the old session in place. The subscription set is part of
    // every cache key (the config hash), so a Session's config is
    // immutable: rebuild it around the same program and binding.
    // Artifacts survive in the shared tier.
    ir::Sdfg program = client->session->program();
    symbolic::SymbolMap binding = client->session->binding();
    client->session =
        std::make_unique<session::Session>(std::move(program), cfg);
    client->session->set_binding(std::move(binding));

    Value result = Value::make_object();
    result["cache_budget_bytes"] =
        Value::of(static_cast<std::int64_t>(cfg.cache_budget_bytes));
    result["line_size"] = Value::of(cfg.pipeline.line_size);
    result["counts"] = Value::of(cfg.pipeline.counts);
    result["miss_threshold_lines"] =
        Value::of(cfg.pipeline.miss_threshold_lines);
    result["keep_distances"] = Value::of(cfg.pipeline.keep_distances);
    result["element_stats"] = Value::of(cfg.pipeline.element_stats);
    result["movement"] = Value::of(cfg.pipeline.movement);
    return result;
  }

  Value do_step(const Value& params) {
    auto client = client_for(param(params, "session").as_string());
    std::lock_guard<std::mutex> lock(client->mutex);
    if (params.has("symbol")) {
      client->session->set_symbol(param(params, "symbol").as_string(),
                                  param(params, "value").as_int());
    } else if (params.has("binding")) {
      client->session->set_binding(parse_binding(params.at("binding")));
    } else {
      throw RequestError("bad_request",
                         "step needs 'symbol' + 'value' or 'binding'");
    }

    const session::ArtifactKey key = client->session->metrics_cache_key();
    const session::SessionStats before = client->session->stats();

    // Coalescing: first requester of a key becomes the leader and
    // computes; concurrent requesters of the SAME key wait for the
    // leader's flight, then hit the shared tier. A leader whose key is
    // already cached just hits the cache — registering the flight is
    // cheap and unconditional, which keeps the map race-free.
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> flights_lock(flights_mutex);
      auto it = flights.find(key);
      if (it != flights.end()) {
        flight = it->second;
      } else {
        flight = std::make_shared<Flight>();
        flights.emplace(key, flight);
        leader = true;
      }
    }
    bool coalesced_request = false;
    if (!leader) {
      std::unique_lock<std::mutex> flight_lock(flight->mutex);
      flight->cv.wait(flight_lock, [&] { return flight->done; });
      coalesced_request = true;
    }

    std::shared_ptr<const sim::PipelineResult> result;
    if (leader) {
      // The guard signals even if metrics() throws — a follower must
      // never wait forever on a failed leader (it will recompute and
      // surface its own error).
      struct FlightGuard {
        Impl* impl;
        const session::ArtifactKey& key;
        const std::shared_ptr<Flight>& flight;
        ~FlightGuard() {
          {
            std::lock_guard<std::mutex> lock(impl->flights_mutex);
            impl->flights.erase(key);
          }
          {
            std::lock_guard<std::mutex> lock(flight->mutex);
            flight->done = true;
          }
          flight->cv.notify_all();
        }
      } guard{this, key, flight};
      result = client->session->metrics();
    } else {
      result = client->session->metrics();
    }

    const session::SessionStats after = client->session->stats();
    const char* served_by = "cache";
    if (after.misses > before.misses) {
      served_by = "compute";
    } else if (after.shared_hits > before.shared_hits) {
      served_by = "shared_cache";
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      ++steps;
      if (coalesced_request) ++coalesced;
    }

    Value response = Value::make_object();
    response["checksum"] = Value::of(std::to_string(result_checksum(*result)));
    response["executions"] = Value::of(result->executions);
    response["cache_misses"] = Value::of(result->misses.total.misses());
    response["movement_bytes"] = Value::of(client->session->movement_bytes());
    response["served_by"] = Value::of(served_by);
    response["coalesced"] = Value::of(coalesced_request);
    return response;
  }

  Value session_stats_json(const session::SessionStats& stats) {
    Value result = Value::make_object();
    result["hits"] = Value::of(stats.hits);
    result["misses"] = Value::of(stats.misses);
    result["shared_hits"] = Value::of(stats.shared_hits);
    // Always 0: the session no longer evaluates ahead of the client.
    // bench/ledger/serve_run.cpp reads both keys; the ledger's next
    // revision drops them.
    result["prefetch_issued"] = Value::of(0);
    result["prefetch_hits"] = Value::of(0);
    result["evictions"] = Value::of(stats.evictions);
    result["cache_bytes"] =
        Value::of(static_cast<std::int64_t>(stats.cache_bytes));
    result["cache_entries"] =
        Value::of(static_cast<std::int64_t>(stats.cache_entries));
    result["steps_full_hit"] = Value::of(stats.steps_full_hit);
    result["steps_symbolic"] = Value::of(stats.steps_symbolic);
    result["steps_chunk_delta"] = Value::of(stats.steps_chunk_delta);
    result["steps_cold"] = Value::of(stats.steps_cold);
    result["simulate_ms"] = Value::of(stats.simulate_ms);
    result["metrics_ms"] = Value::of(stats.metrics_ms);
    result["metric_partitions"] = Value::of(stats.metric_partitions);
    return result;
  }

  Value do_stats(const Value& params) {
    Value result = Value::make_object();
    {
      Value server = Value::make_object();
      std::size_t session_count;
      {
        std::lock_guard<std::mutex> lock(sessions_mutex);
        session_count = sessions.size();
      }
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        server["requests"] = Value::of(requests);
        server["errors"] = Value::of(errors);
        server["steps"] = Value::of(steps);
        server["coalesced"] = Value::of(coalesced);
      }
      server["sessions"] = Value::of(static_cast<std::int64_t>(session_count));
      server["pool_busy_fallbacks"] =
          Value::of(static_cast<std::int64_t>(par::busy_fallbacks()));
      server["threads"] = Value::of(par::num_threads());
      result["server"] = std::move(server);
    }
    {
      const session::SharedCacheStats cache = shared->stats();
      Value tier = Value::make_object();
      tier["hits"] = Value::of(cache.hits);
      tier["misses"] = Value::of(cache.misses);
      tier["insertions"] = Value::of(cache.insertions);
      tier["evictions"] = Value::of(cache.evictions);
      tier["bytes"] = Value::of(static_cast<std::int64_t>(cache.bytes));
      tier["entries"] = Value::of(static_cast<std::int64_t>(cache.entries));
      tier["disk_hits"] = Value::of(cache.disk_hits);
      tier["disk_misses"] = Value::of(cache.disk_misses);
      tier["disk_writes"] = Value::of(cache.disk_writes);
      tier["disk_bytes"] = Value::of(static_cast<std::int64_t>(cache.disk_bytes));
      tier["disk_entries"] =
          Value::of(static_cast<std::int64_t>(cache.disk_entries));
      result["shared_cache"] = std::move(tier);
    }
    if (params.has("session")) {
      auto client = client_for(params.at("session").as_string());
      std::lock_guard<std::mutex> lock(client->mutex);
      result["session"] = session_stats_json(client->session->stats());
    }
    return result;
  }

  Value do_shutdown() {
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      accepting = false;
    }
    Value result = Value::make_object();
    result["stopping"] = Value::of(true);
    return result;
  }

  Value dispatch(const std::string& method, const Value& params) {
    if (method == "open_program") return do_open_program(params);
    if (method == "edit_program") return do_edit_program(params);
    if (method == "bind") return do_bind(params);
    if (method == "subscribe") return do_subscribe(params);
    if (method == "step") return do_step(params);
    if (method == "stats") return do_stats(params);
    if (method == "shutdown") return do_shutdown();
    throw RequestError("unknown_method", "unknown method '" + method + "'");
  }
};

namespace {

std::string respond_result(const Value& id, Value result) {
  Value response = Value::make_object();
  response["id"] = id;
  response["result"] = std::move(result);
  return json::dump(response);
}

std::string respond_error(const Value& id, const std::string& code,
                          const std::string& message) {
  Value error = Value::make_object();
  error["code"] = Value::of(code);
  error["message"] = Value::of(message);
  Value response = Value::make_object();
  response["id"] = id;
  response["error"] = std::move(error);
  return json::dump(response);
}

}  // namespace

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() { shutdown(); }

std::string Server::handle(const std::string& line) {
  Value id = Value::null();
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->requests;
    if (!impl_->accepting) {
      ++impl_->errors;
      return respond_error(id, "shutting_down",
                           "server is shutting down; request rejected");
    }
    ++impl_->in_flight;
  }
  struct InFlightGuard {
    Impl* impl;
    ~InFlightGuard() {
      std::lock_guard<std::mutex> lock(impl->state_mutex);
      if (--impl->in_flight == 0) impl->drained.notify_all();
    }
  } guard{impl_.get()};

  std::string code;
  std::string message;
  try {
    Value request = json::parse(line);
    if (request.has("id")) id = request.at("id");
    const std::string& method = param(request, "method").as_string();
    const Value params =
        request.has("params") ? request.at("params") : Value::make_object();
    try {
      return respond_result(id, impl_->dispatch(method, params));
    } catch (const json::ParseError& error) {
      // A type/key mismatch inside params is the client's fault, not a
      // malformed line.
      throw RequestError("bad_request", error.what());
    } catch (const symbolic::UnboundSymbolError& error) {
      // So is a binding the program cannot be evaluated at.
      throw RequestError("bad_binding", error.what());
    } catch (const layout::NonPositiveExtentError& error) {
      throw RequestError("bad_binding", error.what());
    } catch (const sim::OutOfBoundsAccessError& error) {
      throw RequestError("bad_binding", error.what());
    } catch (const std::domain_error& error) {
      // An integer helper's domain: a zero divisor, a quotient past
      // int64, or a negative exponent.
      throw RequestError("bad_binding", error.what());
    }
  } catch (const RequestError& error) {
    code = error.code();
    message = error.what();
  } catch (const json::ParseError& error) {
    code = "parse_error";
    message = error.what();
  } catch (const std::exception& error) {
    code = "internal";
    message = error.what();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->errors;
  }
  return respond_error(id, code, message);
}

std::string Server::handle_oversized_line() {
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->requests;
    ++impl_->errors;
  }
  return respond_error(Value::null(), "request_too_large",
                       "request line exceeds " +
                           std::to_string(kMaxRequestLineBytes) + " bytes");
}

void Server::shutdown() {
  std::unique_lock<std::mutex> lock(impl_->state_mutex);
  impl_->accepting = false;
  impl_->drained.wait(lock, [&] { return impl_->in_flight == 0; });
}

bool Server::shutting_down() const {
  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  return !impl_->accepting;
}

ServerStats Server::stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    stats.requests = impl_->requests;
    stats.errors = impl_->errors;
    stats.steps = impl_->steps;
    stats.coalesced = impl_->coalesced;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->sessions_mutex);
    stats.sessions = static_cast<std::int64_t>(impl_->sessions.size());
  }
  stats.pool_busy_fallbacks = par::busy_fallbacks();
  return stats;
}

session::SharedCacheStats Server::shared_cache_stats() const {
  return impl_->shared->stats();
}

std::int64_t result_checksum(const sim::PipelineResult& result) {
  std::int64_t checksum = result.misses.total.misses() + result.executions;
  for (std::size_t c = 0; c < result.element_stats.size(); ++c) {
    checksum += result.element_stats[c].cold_count.sum();
    // Guarded: a serve subscription may enable element_stats without
    // counts.
    if (c < result.counts.reads.size()) {
      checksum += result.counts.reads[c].sum();
    }
  }
  return checksum;
}

ir::Sdfg workload_by_name(const std::string& name) {
  using workloads::BertStage;
  using workloads::HdiffVariant;
  if (name == "hdiff") return workloads::hdiff(HdiffVariant::Baseline);
  if (name == "hdiff_reshaped") return workloads::hdiff(HdiffVariant::Reshaped);
  if (name == "hdiff_reordered") {
    return workloads::hdiff(HdiffVariant::Reordered);
  }
  if (name == "hdiff_padded") return workloads::hdiff(HdiffVariant::Padded);
  if (name == "bert") return workloads::bert_encoder(BertStage::Baseline);
  if (name == "bert_fused1") return workloads::bert_encoder(BertStage::Fused1);
  if (name == "bert_fused2") return workloads::bert_encoder(BertStage::Fused2);
  if (name == "matmul") return workloads::matmul();
  if (name == "conv2d") return workloads::conv2d();
  if (name == "outer_product") return workloads::outer_product();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace dmv::serve
