// The traced run: a replay that times each layer of an interaction from
// outside, around the public call into that layer, and isolated probes of
// the layers the replay cannot split.

#include <algorithm>
#include <fstream>
#include <functional>

#include "dmv/analysis/analysis.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/store/artifact_store.hpp"
#include "harness.hpp"

namespace ledger {

namespace {

using dmv::json::Value;

SymbolMap parse_binding(const Value& value) {
  SymbolMap binding;
  for (const auto& [symbol, v] : value.object) binding[symbol] = v.as_int();
  return binding;
}

/// Contiguous child spans of one interaction: each stage starts where the
/// previous one ended, so the children add up to the root exactly.
class Stages {
 public:
  Stages(Recorder& recorder, std::map<std::string, double>& totals, int request)
      : recorder_(recorder), totals_(totals), request_(request),
        begin_(Clock::now()), cursor_(begin_) {}

  Clock::time_point cursor() const { return cursor_; }

  void close(const char* name) { close_at(name, Clock::now()); }

  void close_at(const char* name, Clock::time_point end) {
    recorder_.add(name, request_, 1, cursor_, end);
    totals_[name] += ms_between(cursor_, end);
    cursor_ = end;
  }

  /// A depth-2 span inside the stage that is still open.
  void nested(const char* name, Clock::time_point begin, double ms) {
    const auto end = begin + from_ms(std::max(0.0, ms));
    recorder_.add(name, request_, 2, begin, end);
    totals_[name] += ms;
  }

  double finish() {
    recorder_.add("interaction", request_, 0, begin_, cursor_);
    return ms_between(begin_, cursor_);
  }

 private:
  Recorder& recorder_;
  std::map<std::string, double>& totals_;
  int request_;
  Clock::time_point begin_;
  Clock::time_point cursor_;
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  return ms_between(begin, Clock::now());
}

std::uint64_t program_version(const std::string& name) {
  return std::hash<std::string>{}(name);
}

}  // namespace

bool Recorder::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    const double ts =
        std::chrono::duration<double, std::micro>(span.begin - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(
                           span.end - span.begin)
                           .count();
    Value event = Value::make_object();
    event["name"] = Value::of(span.name);
    event["cat"] = Value::of(span.depth == 0 ? "interaction" : "layer");
    event["ph"] = Value::of("X");
    event["ts"] = Value::of(ts);
    event["dur"] = Value::of(std::max(0.0, dur));
    event["pid"] = Value::of(1);
    event["tid"] = Value::of(1);
    Value args = Value::make_object();
    args["interaction"] = Value::of(span.request);
    event["args"] = std::move(args);
    out << (first ? "\n" : ",\n") << dmv::json::dump(event);
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

TracedReport run_traced(const Workload& workload, const Answers& expected,
                        Recorder& recorder, const std::string& disk_dir) {
  dmv::serve::ServerConfig server_config;
  server_config.shared_cache.disk_dir = disk_dir;
  if (!disk_dir.empty()) {
    server_config.shared_cache.codecs.emplace_back(
        dmv::session::metrics_artifact_kind(),
        dmv::store::pipeline_result_codec());
  }
  dmv::session::SessionConfig config = served_session_config(workload);
  config.shared_cache = std::make_shared<dmv::session::SharedArtifactCache>(
      server_config.shared_cache);
  dmv::session::Session session(workload.program, config);
  session.set_binding(workload.initial_binding);

  const Script& script = workload.clients.front();
  const std::vector<StepState> states = step_states(workload, script);
  const std::size_t count = script.interactions.size();
  std::map<std::string, double> totals;
  TracedReport report;
  double root_total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Interaction& interaction = script.interactions[i];
    Stages stages(recorder, totals, static_cast<int>(i));
    std::string answer;
    for (const std::string& line : interaction.lines) {
      const Value request = dmv::json::parse(line);
      const Value& params = request.at("params");
      const std::string& method = request.at("method").as_string();
      stages.close("util.json_parse");
      // session.update applies the request's change: edit_program builds
      // the named workload and swaps it in; bind and step rebind.
      if (method == "edit_program") {
        session.set_program(
            dmv::serve::workload_by_name(params.at("workload").as_string()));
      } else if (params.has("symbol")) {
        session.set_symbol(params.at("symbol").as_string(),
                           params.at("value").as_int());
      } else {
        session.set_binding(parse_binding(params.at("binding")));
      }
      stages.close("session.update");
      if (method != "step") continue;

      const Clock::time_point metrics_begin = stages.cursor();
      const dmv::session::SessionStats before = session.stats();
      const auto result = session.metrics();
      const dmv::session::SessionStats after = session.stats();
      const double total = ms_between(metrics_begin, Clock::now());
      const double simulate = after.simulate_ms - before.simulate_ms;
      const double metrics = after.metrics_ms - before.metrics_ms;
      // The phase totals are laid out one after the other inside the
      // session.metrics span; the remainder is the session's own work
      // (lookups, inserts and the speculative prefetch).
      stages.nested("sim.simulate", metrics_begin, simulate);
      stages.nested("sim.metrics",
                    metrics_begin + from_ms(std::max(0.0, simulate)), metrics);
      totals["session.self"] += total - simulate - metrics;
      stages.close("session.metrics");

      const std::int64_t movement = session.movement_bytes();
      stages.close("analysis.movement");
      const std::string checksum =
          std::to_string(dmv::serve::result_checksum(*result));
      stages.close("serve.checksum");
      answer = step_answer(checksum, result->executions,
                           result->misses.total.misses(), movement);
      Value response = Value::make_object();
      response["checksum"] = Value::of(checksum);
      response["executions"] = Value::of(result->executions);
      response["cache_misses"] = Value::of(result->misses.total.misses());
      response["movement_bytes"] = Value::of(movement);
      response["served_by"] = Value::of(
          after.misses > before.misses             ? "compute"
          : after.shared_hits > before.shared_hits ? "shared_cache"
                                                   : "cache");
      response["coalesced"] = Value::of(false);
      Value envelope = Value::make_object();
      envelope["id"] = request.at("id");
      envelope["result"] = std::move(response);
      const std::string out = dmv::json::dump(envelope);
      stages.close("util.json_dump");
    }
    root_total += stages.finish();
    const StepState& state = states[i];
    const auto it = expected.find(state_key(state.program, state.binding));
    if (it == expected.end() || it->second != answer) ++report.mismatches;
  }
  report.replayed = static_cast<std::int64_t>(count);
  const double n = std::max<double>(1.0, static_cast<double>(count));
  for (const char* layer :
       {"util.json_parse", "session.update", "session.metrics", "session.self",
        "analysis.movement", "serve.checksum", "util.json_dump"}) {
    report.metrics[std::string(layer) + "_ms"] = totals[layer] / n;
  }
  report.metrics["trace.layer_sum_ms"] = root_total / n;
  return report;
}

std::map<std::string, double> run_probes(const Workload& workload,
                                         const std::vector<StepState>& computed,
                                         const std::vector<StepState>& sequence,
                                         std::size_t max_states) {
  namespace sim = dmv::sim;
  const dmv::session::SessionConfig session_config =
      served_session_config(workload);
  const sim::SimulationOptions options = session_config.simulation;
  sim::SimulationOptions scalar = options;
  scalar.lane_width = 1;

  // Evenly spaced distinct computed states.
  std::vector<StepState> picked;
  const std::size_t stride =
      std::max<std::size_t>(1, (computed.size() + max_states - 1) / max_states);
  for (std::size_t i = 0; i < computed.size() && picked.size() < max_states;
       i += stride) {
    picked.push_back(computed[i]);
  }

  const auto consumer = [](auto&& set) {
    sim::PipelineConfig config;
    config.counts = false;
    set(config);
    return sim::MetricPipeline(config);
  };
  // The drag subscription's threshold, also used where none is subscribed.
  const std::int64_t threshold =
      session_config.pipeline.miss_threshold_lines > 0
          ? session_config.pipeline.miss_threshold_lines
          : 512;
  sim::MetricPipeline counts(sim::PipelineConfig{});
  sim::MetricPipeline distances =
      consumer([](sim::PipelineConfig& c) { c.keep_distances = true; });
  sim::MetricPipeline misses = consumer(
      [&](sim::PipelineConfig& c) { c.miss_threshold_lines = threshold; });
  sim::MetricPipeline element =
      consumer([](sim::PipelineConfig& c) { c.element_stats = true; });
  sim::MetricPipeline cache =
      consumer([](sim::PipelineConfig& c) { c.cache = sim::CacheConfig{}; });
  sim::MetricPipeline fused(session_config.pipeline);
  sim::MetricPipeline streaming(session_config.pipeline);

  std::map<std::string, dmv::ir::Sdfg> programs;
  const auto program_of = [&](const std::string& name) -> const dmv::ir::Sdfg& {
    auto it = programs.find(name);
    if (it == programs.end()) {
      it = programs.emplace(name, program_by_name(workload, name)).first;
    }
    return it->second;
  };

  std::map<std::string, double> sum;
  std::map<std::string, dmv::analysis::ClosedFormMetrics> closed_forms;
  for (const StepState& state : picked) {
    const dmv::ir::Sdfg& program = program_of(state.program);
    if (!closed_forms.contains(state.program)) {
      closed_forms.emplace(state.program,
                           dmv::analysis::closed_form_metrics(program));
    }
    const SymbolMap& binding = state.binding;
    sim::AccessTrace trace;
    sim::PipelineResult result;
    std::string bytes;
    sum["sim.plan_ms"] +=
        time_ms([&] { sim::plan_trace(program, binding, options); });
    sum["sim.generate_w1_ms"] +=
        time_ms([&] { sim::simulate(program, binding, scalar); });
    sum["sim.generate_w8_ms"] +=
        time_ms([&] { trace = sim::simulate(program, binding, options); });
    sum["sim.events"] += static_cast<double>(trace.events.size());
    sum["sim.line_ids_ms"] +=
        time_ms([&] { sim::build_line_table(trace, 64); });
    sum["sim.counts_ms"] += time_ms([&] { counts.run(trace); });
    sum["sim.distances_ms"] += time_ms([&] { distances.run(trace); });
    sum["sim.misses_ms"] += time_ms([&] { misses.run(trace); });
    sum["sim.element_stats_ms"] += time_ms([&] { element.run(trace); });
    sum["sim.cache_ms"] += time_ms([&] { cache.run(trace); });
    trace = sim::AccessTrace{};
    sum["sim.fused_materialized_ms"] +=
        time_ms([&] { result = fused.run(program, binding, options); });
    sum["sim.fused_streaming_ms"] +=
        time_ms([&] { streaming.run_streaming(program, binding, options); });
    sum["analysis.closed_form_ms"] += time_ms([&] {
      dmv::analysis::evaluate_closed_form(closed_forms.at(state.program),
                                          binding);
    });
    sum["store.encode_ms"] +=
        time_ms([&] { bytes = dmv::store::encode_pipeline_result(result); });
    sum["store.decode_ms"] +=
        time_ms([&] { dmv::store::decode_pipeline_result(bytes); });
    sum["store.artifact_kb"] += static_cast<double>(bytes.size()) / 1024.0;
  }
  std::map<std::string, double> metrics;
  const double n = std::max<double>(1.0, static_cast<double>(picked.size()));
  for (const auto& [name, value] : sum) metrics[name] = value / n;
  for (const char* name :
       {"sim.plan_ms", "sim.generate_w1_ms", "sim.generate_w8_ms", "sim.events",
        "sim.line_ids_ms", "sim.counts_ms", "sim.distances_ms", "sim.misses_ms",
        "sim.element_stats_ms", "sim.cache_ms", "sim.fused_materialized_ms",
        "sim.fused_streaming_ms", "analysis.closed_form_ms", "store.encode_ms",
        "store.decode_ms", "store.artifact_kb"}) {
    metrics.emplace(name, 0.0);
  }

  // The delta engine along the first steps of the script, on one pipeline
  // as a session drives it.
  sim::MetricPipeline delta(session_config.pipeline);
  double delta_ms = 0, dirty = 0, total_chunks = 0, resumed = 0, patched = 0;
  const std::size_t steps = std::min<std::size_t>(sequence.size(), 48);
  for (std::size_t s = 0; s < steps; ++s) {
    const StepState& state = sequence[s];
    const dmv::ir::Sdfg& program = program_of(state.program);
    sim::DeltaOutcome outcome;
    delta_ms += time_ms([&] {
      delta.run_delta(program, program_version(state.program), state.binding,
                      options, &outcome);
    });
    if (outcome.path == sim::DeltaOutcome::Path::kChunkDelta) {
      ++patched;
      dirty += static_cast<double>(outcome.chunks_dirty);
      total_chunks += static_cast<double>(outcome.chunks_total);
      if (outcome.resumed) ++resumed;
    }
  }
  metrics["sim.delta_ms"] =
      delta_ms / std::max<double>(1.0, static_cast<double>(steps));
  metrics["sim.delta_dirty_ratio"] =
      total_chunks > 0 ? dirty / total_chunks : 0;
  metrics["sim.delta_resumed_ratio"] = patched > 0 ? resumed / patched : 0;
  return metrics;
}

}  // namespace ledger
