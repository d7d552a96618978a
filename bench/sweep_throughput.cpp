// sweep_throughput: end-to-end latency of the interactive parameter
// sweep — the paper's core loop (drag a slider, re-simulate the region,
// recompute the derived metrics, redraw). For each workload we run a
// slider sweep of several bindings; each binding executes the full
// bind -> simulate -> stack distance -> access counts -> element
// distance stats -> miss classification pipeline, through the metric
// engine (MetricPipeline).
//
// Measured configurations:
//   * serial scalar engine (threads = 1, lane_width = 1) — the baseline
//     the simulate-only ratios are taken against;
//   * serial batched engine (lane_width 4 and 8) — the simulate_batched
//     series; a lane-width ablation whose traces are checksum-validated
//     against the scalar engine per binding;
//   * trace generation alone, 1 thread vs chunk-parallel at the
//     hardware thread count;
//   * pipeline modes: MetricPipeline over a materialized trace and in
//     streaming mode (no event vector), 1 thread, checksum-validated
//     against each other, plus the metric engine alone over
//     pre-simulated traces;
//   * the same materialized sweep at 1 / 2 / 8 / hardware threads — the
//     interactive-rate configuration, speedups against the 1-thread run
//     (skipped and recorded as such when the machine has a single
//     hardware thread);
//   * metrics breakdown: the metric engine per consumer (counts /
//     distances / misses / element_stats / cache) and for the full set,
//     with a thread-scaling series gated on full-result fingerprints
//     (or an explicit skip record on a 1-core runner);
//   * closed-form counts: a counts-only MetricPipeline::run(sdfg),
//     answered from translated boxes without a trace, vs simulate +
//     run(trace) over the same bindings, fingerprint-gated;
//   * session sweep: the same slider drag through dmv::session::Session
//     — cold (fresh cache) and warm (every binding already cached) —
//     checksum-validated against the uncached pipeline.
//
// Results go to stdout and to BENCH_sweep.json (machine readable).
// Speedups are reported against the serial (1-thread) configuration of
// the same engine; the hardware thread count is recorded so a 1-core
// runner's numbers are not mistaken for a scaling ceiling. The metric
// engine's agreement with an independent serial oracle is a ctest
// (MetricMerge, Pipeline), not a series here.
//
// `--smoke`: tiny workload, no timing, no JSON — runs every identity
// gate and exits nonzero on the first mismatch: materialized ==
// streaming == session, 1-thread == 8-thread trace, W=4/8 == W=1 trace,
// delta recompute == cold, artifact codec round trip, metric engine at
// 8 threads == 1 thread, closed-form counts == simulated counts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/par/par.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using dmv::sim::AccessTrace;
using dmv::sim::SimulationOptions;
using dmv::symbolic::SymbolMap;

// One workload's slider sweep. The binding list is derived ONCE from
// (base, symbol, values) in make_case, so every configuration —
// materialized, streaming, thread-scaled, and the session sweep —
// measures the exact same slider positions.
struct SweepCase {
  std::string name;
  dmv::ir::Sdfg sdfg;
  SymbolMap base;                    ///< Fixed symbols.
  std::string symbol;                ///< The slider symbol.
  std::vector<std::int64_t> values;  ///< Its positions, in drag order.
  std::vector<SymbolMap> bindings;   ///< base + symbol=value, per value.
};

SweepCase make_case(std::string name, dmv::ir::Sdfg sdfg, SymbolMap base,
                    std::string symbol, std::vector<std::int64_t> values) {
  std::vector<SymbolMap> bindings;
  bindings.reserve(values.size());
  for (std::int64_t value : values) {
    SymbolMap binding = base;
    binding[symbol] = value;
    bindings.push_back(std::move(binding));
  }
  return SweepCase{std::move(name),   std::move(sdfg),
                   std::move(base),   std::move(symbol),
                   std::move(values), std::move(bindings)};
}

// The metric set every configuration computes; checksums keep the
// pipeline honest (nothing optimized away) and let configurations
// cross-validate: every engine/thread count/pipeline mode must agree.
dmv::sim::PipelineConfig bench_config() {
  dmv::sim::PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 512;
  config.element_stats = true;
  return config;
}

std::int64_t pipeline_checksum(const dmv::sim::PipelineResult& result) {
  std::int64_t checksum = result.misses.total.misses() + result.executions;
  for (std::size_t c = 0; c < result.element_stats.size(); ++c) {
    checksum += result.element_stats[c].cold_count.sum();
    checksum += result.counts.reads[c].sum();
  }
  return checksum;
}

// The sweep through ONE MetricPipeline across all bindings, so the
// arena (trace columns, line columns, Fenwick trees, per-element
// scratch) is allocated once and reused at every slider position.
std::int64_t run_fused(const SweepCase& sweep,
                       const SimulationOptions& options, bool streaming) {
  dmv::sim::MetricPipeline pipeline(bench_config());
  std::int64_t total = 0;
  for (const SymbolMap& binding : sweep.bindings) {
    const dmv::sim::PipelineResult result =
        streaming ? pipeline.run_streaming(sweep.sdfg, binding, options)
                  : pipeline.run(sweep.sdfg, binding, options);
    total += pipeline_checksum(result);
  }
  return total;
}

// The simulate stage in isolation: the only stage whose inner loop lane
// batching touches, so its ratio is the batching speedup undiluted by
// the engine-independent metric passes.
std::int64_t run_simulate_only(const SweepCase& sweep,
                               const SimulationOptions& options) {
  std::int64_t total = 0;
  for (const SymbolMap& binding : sweep.bindings) {
    const AccessTrace trace = dmv::sim::simulate(sweep.sdfg, binding, options);
    total += trace.executions + static_cast<std::int64_t>(trace.events.size());
  }
  return total;
}

// Order-sensitive checksum over every event field: any reordered,
// duplicated, dropped, or mis-stamped event under parallel generation
// changes the value (the FNV chain covers each event's position). This
// is the identity gate for the trace-generation series —
// executions + events.size() would miss a permutation.
std::int64_t trace_checksum(const AccessTrace& trace) {
  std::uint64_t h = 1469598103934665603ull ^
                    static_cast<std::uint64_t>(trace.executions);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const dmv::sim::AccessEvent event = trace.events[i];
    std::uint64_t word = static_cast<std::uint64_t>(event.flat);
    word = word * 31 + static_cast<std::uint64_t>(event.container);
    word = word * 31 + (event.is_write ? 1 : 0);
    word = word * 31 + static_cast<std::uint64_t>(event.execution);
    word = word * 31 + static_cast<std::uint64_t>(event.tasklet);
    h = (h ^ word) * 1099511628211ull;
  }
  return static_cast<std::int64_t>(h);
}

// Trace generation ONLY (no metric passes), checksummed per binding —
// the serial-vs-parallel series measures exactly the stage the chunk
// planner parallelizes.
std::int64_t run_trace_generation(const SweepCase& sweep,
                                  const SimulationOptions& options) {
  std::int64_t total = 0;
  for (const SymbolMap& binding : sweep.bindings) {
    total += trace_checksum(dmv::sim::simulate(sweep.sdfg, binding, options));
  }
  return total;
}

// ---- metrics_breakdown ----------------------------------------------
//
// The metric engine over pre-simulated traces (no simulation cost),
// per consumer (counts / distances / misses / element_stats / cache)
// and for the full consumer set; the full set also gets a
// thread-scaling series (or an explicit skip record on a 1-core
// runner). Gated on an FNV-1a fingerprint of EVERY PipelineResult
// field — a stronger check than the additive checksums above, because
// the engine's merge order must reproduce the 1-thread result bit for
// bit at any thread count, not just in aggregate.

std::uint64_t fnv_fold(std::uint64_t hash, std::int64_t value) {
  hash ^= static_cast<std::uint64_t>(value);
  return hash * 1099511628211ull;
}

std::uint64_t result_fingerprint(const dmv::sim::PipelineResult& result) {
  std::uint64_t hash = 1469598103934665603ull;
  hash = fnv_fold(hash, result.events);
  hash = fnv_fold(hash, result.executions);
  hash = fnv_fold(hash, static_cast<std::int64_t>(result.containers.size()));
  for (const auto& column : result.counts.reads) {
    for (std::int64_t v : column) hash = fnv_fold(hash, v);
  }
  for (const auto& column : result.counts.writes) {
    for (std::int64_t v : column) hash = fnv_fold(hash, v);
  }
  hash = fnv_fold(hash, result.distances.line_size);
  for (std::int64_t d : result.distances.distances) hash = fnv_fold(hash, d);
  hash = fnv_fold(hash, result.misses.threshold_lines);
  for (const auto& column : result.misses.element_misses) {
    for (std::int64_t v : column) hash = fnv_fold(hash, v);
  }
  for (const auto& stats : result.misses.per_container) {
    hash = fnv_fold(hash, stats.cold);
    hash = fnv_fold(hash, stats.capacity);
    hash = fnv_fold(hash, stats.hits);
  }
  hash = fnv_fold(hash, result.misses.total.cold);
  hash = fnv_fold(hash, result.misses.total.capacity);
  hash = fnv_fold(hash, result.misses.total.hits);
  for (const auto& stats : result.element_stats) {
    for (std::int64_t v : stats.min) hash = fnv_fold(hash, v);
    for (std::int64_t v : stats.median) hash = fnv_fold(hash, v);
    for (std::int64_t v : stats.max) hash = fnv_fold(hash, v);
    for (std::int64_t v : stats.cold_count) hash = fnv_fold(hash, v);
  }
  hash = fnv_fold(hash, result.cache.config.line_size);
  hash = fnv_fold(hash, result.cache.config.total_size);
  hash = fnv_fold(hash, result.cache.config.ways);
  for (const auto& stats : result.cache.per_container) {
    hash = fnv_fold(hash, stats.cold);
    hash = fnv_fold(hash, stats.capacity);
    hash = fnv_fold(hash, stats.hits);
  }
  hash = fnv_fold(hash, result.cache.total.cold);
  hash = fnv_fold(hash, result.cache.total.capacity);
  hash = fnv_fold(hash, result.cache.total.hits);
  hash = fnv_fold(hash, result.movement.line_size);
  for (std::int64_t v : result.movement.bytes_per_container) {
    hash = fnv_fold(hash, v);
  }
  hash = fnv_fold(hash, result.movement.total_bytes);
  return hash;
}

// The breakdown's headline config: the bench metric set PLUS the exact
// cache simulation (the consumer the set-partitioned engine speeds up
// most) and movement.
dmv::sim::PipelineConfig breakdown_config() {
  dmv::sim::PipelineConfig config = bench_config();
  config.cache = dmv::sim::CacheConfig{};
  config.movement = true;
  return config;
}

// One consumer set over the pre-simulated traces through the metric
// engine; returns the XOR of the per-trace result fingerprints.
std::uint64_t run_metrics(const std::vector<AccessTrace>& traces,
                          const dmv::sim::PipelineConfig& config) {
  dmv::sim::MetricPipeline pipeline(config);
  std::uint64_t hash = 0;
  for (const AccessTrace& trace : traces) {
    hash ^= result_fingerprint(pipeline.run(trace));
  }
  return hash;
}

// Fingerprint gate shared by the full run and --smoke: the engine at 8
// (oversubscribed) threads must reproduce its 1-thread full result
// fingerprint, for the headline consumer set and for the cache alone.
bool validate_metric_merge(const SweepCase& sweep,
                           const SimulationOptions& options) {
  std::vector<AccessTrace> traces;
  for (const SymbolMap& binding : sweep.bindings) {
    traces.push_back(dmv::sim::simulate(sweep.sdfg, binding, options));
  }
  dmv::sim::PipelineConfig cache_only;
  cache_only.counts = false;
  cache_only.cache = dmv::sim::CacheConfig{};
  const dmv::sim::PipelineConfig configs[] = {breakdown_config(),
                                              cache_only};
  for (const dmv::sim::PipelineConfig& config : configs) {
    std::uint64_t serial = 0;
    {
      dmv::par::ThreadScope scope(1);
      serial = run_metrics(traces, config);
    }
    dmv::par::ThreadScope scope(8);
    if (run_metrics(traces, config) != serial) {
      std::cerr << "FATAL: metric engine fingerprint mismatch on "
                << sweep.name << " at 8 threads vs 1\n";
      return false;
    }
  }
  return true;
}

// ---- closed_form_counts ----------------------------------------------
//
// Counts-only steps without a trace: MetricPipeline::run(sdfg) answers a
// config with no per-event consumer from translated boxes
// (docs/simulation.md, "Closed-form counts") instead of simulating and
// tallying the trace. Both sides run the same counts-only config.

// The path the counter replaces: simulate, then the engine's count tally.
std::uint64_t run_counts_simulated(const SweepCase& sweep,
                                   const SimulationOptions& options) {
  dmv::sim::MetricPipeline pipeline{dmv::sim::PipelineConfig{}};
  std::uint64_t hash = 0;
  for (const SymbolMap& binding : sweep.bindings) {
    hash ^= result_fingerprint(
        pipeline.run(dmv::sim::simulate(sweep.sdfg, binding, options)));
  }
  return hash;
}

std::uint64_t run_counts_closed_form(const SweepCase& sweep,
                                     const SimulationOptions& options) {
  dmv::sim::MetricPipeline pipeline{dmv::sim::PipelineConfig{}};
  std::uint64_t hash = 0;
  for (const SymbolMap& binding : sweep.bindings) {
    hash ^= result_fingerprint(pipeline.run(sweep.sdfg, binding, options));
  }
  return hash;
}

// Gate shared by the full run and --smoke: the counter must take every
// binding (run_delta reports kClosedForm), and its results must carry
// the full fingerprint of simulate + run(trace).
bool validate_closed_form_counts(const SweepCase& sweep,
                                 const SimulationOptions& options) {
  for (const SymbolMap& binding : sweep.bindings) {
    dmv::sim::MetricPipeline probe{dmv::sim::PipelineConfig{}};
    dmv::sim::DeltaOutcome outcome;
    probe.run_delta(sweep.sdfg, 1, binding, options, &outcome);
    if (outcome.path != dmv::sim::DeltaOutcome::Path::kClosedForm) {
      std::cerr << "FATAL: closed-form counter declined " << sweep.name
                << " (" << outcome.reason << ")\n";
      return false;
    }
  }
  if (run_counts_closed_form(sweep, options) !=
      run_counts_simulated(sweep, options)) {
    std::cerr << "FATAL: closed-form counts fingerprint mismatch on "
              << sweep.name << "\n";
    return false;
  }
  return true;
}

// ---- symbolic_ops ----------------------------------------------------
//
// The symbolic engine in isolation: the repeated build -> simplify ->
// analyze -> substitute -> evaluate series the session layer issues on
// every slider drag, over each workload's real movement-volume
// expression.
std::int64_t run_symbolic_ops(const SweepCase& sweep, int rounds) {
  using dmv::symbolic::Expr;
  // The base may bind the slider symbol too (bert_small binds SM); it
  // must stay free until the slider binding substitutes it.
  SymbolMap fixed = sweep.base;
  fixed.erase(sweep.symbol);
  std::int64_t checksum = 0;
  for (int round = 0; round < rounds; ++round) {
    // Build: re-derive the symbolic volume from the IR (exercises the
    // interner and construction-time simplification).
    const Expr metric = dmv::analysis::total_movement_bytes(sweep.sdfg);
    // Deep canonicalization pass (simplify-memo hit after round 0).
    const Expr simple = dmv::symbolic::simplified(metric);
    // Free-symbol and reachability analyses (intern-time metadata).
    checksum += static_cast<std::int64_t>(simple.free_symbols().size());
    checksum += simple.depends_on(sweep.symbol) ? 1 : 0;
    for (const SymbolMap& binding : sweep.bindings) {
      // Partial substitution of the fixed symbols, then the slider.
      const Expr partial = simple.substitute(fixed);
      const Expr bound = partial.substitute(binding);
      checksum += bound.is_constant() ? bound.constant_value() : -1;
      // Direct evaluation of the full expression under the binding.
      checksum += simple.evaluate(binding);
    }
  }
  return checksum;
}

struct Measurement {
  double best_ms = 0;
  std::int64_t checksum = 0;
};

template <typename Fn>
Measurement measure(Fn&& fn, int repetitions) {
  Measurement measurement;
  measurement.best_ms = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    measurement.checksum = fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    measurement.best_ms = std::min(measurement.best_ms, ms);
  }
  return measurement;
}

std::vector<SweepCase> build_cases(bool smoke) {
  using dmv::workloads::HdiffVariant;
  std::vector<SweepCase> cases;
  {
    // 20 slider positions in the full run — enough drag steps for the
    // session sweep's cold/warm contrast to be meaningful.
    std::vector<std::int64_t> ks;
    if (smoke) {
      ks = {2, 3, 4};
    } else {
      for (std::int64_t k = 4; k <= 23; ++k) ks.push_back(k);
    }
    const std::int64_t ij = smoke ? 8 : 16;
    cases.push_back(make_case(
        "hdiff", dmv::workloads::hdiff(HdiffVariant::Baseline),
        SymbolMap{{"I", ij}, {"J", ij}}, "K", std::move(ks)));
  }
  {
    cases.push_back(make_case(
        "bert", dmv::workloads::bert_encoder(dmv::workloads::BertStage::Fused2),
        dmv::workloads::bert_small(), "SM",
        smoke ? std::vector<std::int64_t>{4, 6}
              : std::vector<std::int64_t>{4, 6, 8, 10, 12, 14}));
  }
  return cases;
}

// ---- session sweep ---------------------------------------------------

dmv::session::SessionConfig session_config(const SimulationOptions& options) {
  dmv::session::SessionConfig config;
  config.pipeline = bench_config();
  config.simulation = options;
  return config;
}

// One pass of the slider drag through a session; checksummed exactly
// like the uncached configurations so they must agree bit for bit.
std::int64_t run_session_pass(dmv::session::Session& session,
                              const SweepCase& sweep) {
  std::int64_t total = 0;
  for (std::int64_t value : sweep.values) {
    session.set_symbol(sweep.symbol, value);
    total += pipeline_checksum(*session.metrics());
  }
  return total;
}

dmv::session::Session fresh_session(const SweepCase& sweep,
                                    const SimulationOptions& options) {
  dmv::session::Session session(sweep.sdfg, session_config(options));
  session.set_binding(sweep.base);
  return session;
}

// Materialized-vs-streaming-vs-session checksum gate shared by the
// full run and --smoke. Returns false (and prints) on divergence.
bool validate_ablation(const SweepCase& sweep,
                       const SimulationOptions& options) {
  dmv::par::set_num_threads(1);
  const std::int64_t materialized =
      run_fused(sweep, options, /*streaming=*/false);
  const std::int64_t streaming =
      run_fused(sweep, options, /*streaming=*/true);
  if (streaming != materialized) {
    std::cerr << "FATAL: pipeline mode mismatch on " << sweep.name
              << ": materialized " << materialized << ", streaming "
              << streaming << "\n";
    return false;
  }
  // Session identity: cold and warm passes must both reproduce the
  // uncached checksum — cached artifacts are bit-identical to direct
  // evaluation.
  dmv::session::Session session = fresh_session(sweep, options);
  const std::int64_t session_cold = run_session_pass(session, sweep);
  const std::int64_t session_warm = run_session_pass(session, sweep);
  if (session_cold != materialized || session_warm != materialized) {
    std::cerr << "FATAL: session sweep mismatch on " << sweep.name
              << ": uncached " << materialized << ", session cold "
              << session_cold << ", session warm " << session_warm << "\n";
    return false;
  }
  return true;
}

// Lane-width identity gate: the batched innermost loop at W=4 and W=8
// must reproduce the scalar (W=1) order-sensitive trace checksum for
// every binding. Serial threads so only the lane width varies.
bool validate_batched_trace(const SweepCase& sweep,
                            const SimulationOptions& options) {
  dmv::par::ThreadScope scope(1);
  SimulationOptions serial = options;
  for (const SymbolMap& binding : sweep.bindings) {
    std::int64_t checksums[3];
    const int widths[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
      serial.lane_width = widths[i];
      checksums[i] =
          trace_checksum(dmv::sim::simulate(sweep.sdfg, binding, serial));
    }
    if (checksums[0] != checksums[1] || checksums[0] != checksums[2]) {
      std::cerr << "FATAL: batched trace mismatch on " << sweep.name
                << ": W=1 " << checksums[0] << ", W=4 " << checksums[1]
                << ", W=8 " << checksums[2] << "\n";
      return false;
    }
  }
  return true;
}

// Serial-vs-parallel trace identity gate: the chunked generator at 8
// (oversubscribed) threads must reproduce the 1-thread trace checksum
// for every binding.
bool validate_chunked_trace(const SweepCase& sweep,
                            const SimulationOptions& options) {
  for (const SymbolMap& binding : sweep.bindings) {
    std::int64_t serial = 0;
    std::int64_t parallel = 0;
    {
      dmv::par::ThreadScope scope(1);
      serial = trace_checksum(dmv::sim::simulate(sweep.sdfg, binding, options));
    }
    {
      dmv::par::ThreadScope scope(8);
      parallel =
          trace_checksum(dmv::sim::simulate(sweep.sdfg, binding, options));
    }
    if (serial != parallel) {
      std::cerr << "FATAL: parallel trace mismatch on " << sweep.name
                << ": serial " << serial << ", parallel(8) " << parallel
                << "\n";
      return false;
    }
  }
  return true;
}

// The fixed-capacity interactive build the delta engine is designed
// around: arrays allocated at KMAX, the K slider bounding only the
// chunked outermost loop. I and J sized so one k slice clears the delta
// planner's per-chunk event floor (slices map one-to-one onto chunks).
dmv::ir::Sdfg fixed_capacity_hdiff() {
  return dmv::workloads::fixed_capacity(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Reordered),
      {{"K", "KMAX"}});
}

// Delta-vs-cold identity gate: a persistent run_delta pipeline dragged
// across the sweep must reproduce a fresh cold pipeline's checksum at
// every binding (whatever path each step took), and a fixed-capacity
// append step must actually take the chunk-delta path with a resumed
// checkpoint.
bool validate_delta_recompute(const SweepCase& sweep,
                              const SimulationOptions& options) {
  dmv::par::ThreadScope scope(1);
  dmv::sim::MetricPipeline delta(bench_config());
  for (const SymbolMap& binding : sweep.bindings) {
    const std::int64_t warm =
        pipeline_checksum(delta.run_delta(sweep.sdfg, 1, binding, options));
    dmv::sim::MetricPipeline fresh(bench_config());
    const std::int64_t cold =
        pipeline_checksum(fresh.run(sweep.sdfg, binding, options));
    if (warm != cold) {
      std::cerr << "FATAL: delta recompute mismatch on " << sweep.name
                << ": delta " << warm << ", cold " << cold << "\n";
      return false;
    }
  }
  dmv::ir::Sdfg fc = fixed_capacity_hdiff();
  SymbolMap binding{{"I", 20}, {"J", 20}, {"K", 4}, {"KMAX", 8}};
  dmv::sim::MetricPipeline delta_fc(bench_config());
  delta_fc.run_delta(fc, 1, binding, options);
  binding["K"] = 5;
  dmv::sim::DeltaOutcome outcome;
  const std::int64_t stepped = pipeline_checksum(
      delta_fc.run_delta(fc, 1, binding, options, &outcome));
  dmv::sim::MetricPipeline fresh(bench_config());
  const std::int64_t cold =
      pipeline_checksum(fresh.run(fc, binding, options));
  if (stepped != cold ||
      outcome.path != dmv::sim::DeltaOutcome::Path::kChunkDelta ||
      !outcome.resumed) {
    std::cerr << "FATAL: fixed-capacity delta step on hdiff: checksum "
              << stepped << " vs cold " << cold << ", path "
              << static_cast<int>(outcome.path) << ", resumed "
              << outcome.resumed << " (" << outcome.reason << ")\n";
    return false;
  }
  return true;
}

// Artifact-codec identity gate: the disk-tier PipelineResult codec must
// round-trip a real metric bundle exactly.
bool validate_artifact_codec(const SweepCase& sweep,
                             const SimulationOptions& options) {
  dmv::par::ThreadScope scope(1);
  dmv::sim::MetricPipeline pipeline(bench_config());
  const dmv::sim::PipelineResult result =
      pipeline.run(sweep.sdfg, sweep.bindings.front(), options);
  const dmv::session::ArtifactCodec codec =
      dmv::store::pipeline_result_codec();
  std::shared_ptr<const void> decoded = codec.decode(codec.encode(&result));
  if (!decoded ||
      pipeline_checksum(*static_cast<const dmv::sim::PipelineResult*>(
          decoded.get())) != pipeline_checksum(result)) {
    std::cerr << "FATAL: pipeline-result codec mismatch on " << sweep.name
              << "\n";
    return false;
  }
  return true;
}

int run_smoke() {
  const SimulationOptions options;
  for (const SweepCase& sweep : build_cases(/*smoke=*/true)) {
    if (!validate_ablation(sweep, options)) return 1;
    if (!validate_chunked_trace(sweep, options)) return 1;
    if (!validate_batched_trace(sweep, options)) return 1;
    if (!validate_delta_recompute(sweep, options)) return 1;
    if (!validate_artifact_codec(sweep, options)) return 1;
    if (!validate_metric_merge(sweep, options)) return 1;
    if (!validate_closed_form_counts(sweep, options)) return 1;
    std::cout << "smoke " << sweep.name
              << ": materialized == streaming == session, "
              << "serial trace == parallel trace (8 threads), "
              << "batched trace (W=4/8) == scalar, "
              << "delta recompute == cold, "
              << "artifact codec round-trip == source, "
              << "metric engine (8 threads) == 1 thread, "
              << "closed-form counts == simulated counts\n";
  }
  std::cout << "smoke OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }

  std::vector<SweepCase> cases = build_cases(/*smoke=*/false);

  const int hardware = dmv::par::hardware_threads();
  const int repetitions = 5;
  std::vector<int> thread_counts{1, 2, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hardware) ==
      thread_counts.end()) {
    thread_counts.push_back(hardware);
  }

  std::ofstream json("BENCH_sweep.json");
  json << "{\n  \"benchmark\": \"sweep_throughput\",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"repetitions\": " << repetitions << ",\n";
  json << "  \"workloads\": [\n";

  for (std::size_t w = 0; w < cases.size(); ++w) {
    const SweepCase& sweep = cases[w];
    // `options` is the shipping configuration (lane-batched); `scalar`
    // pins lane_width = 1, the baseline the batched ratio is measured
    // against.
    const SimulationOptions options;
    SimulationOptions scalar = options;
    scalar.lane_width = 1;
    SimulationOptions w4 = options;
    w4.lane_width = 4;

    dmv::par::set_num_threads(1);
    const Measurement sim_scalar = measure(
        [&] { return run_simulate_only(sweep, scalar); }, repetitions);
    // Lane-width ablation. Identity is enforced on full order-sensitive
    // trace checksums, untimed.
    const Measurement sim_batched4 = measure(
        [&] { return run_simulate_only(sweep, w4); }, repetitions);
    const Measurement sim_batched = measure(
        [&] { return run_simulate_only(sweep, options); }, repetitions);
    if (!validate_batched_trace(sweep, options)) return 1;
    if (sim_scalar.checksum != sim_batched.checksum ||
        sim_scalar.checksum != sim_batched4.checksum) {
      std::cerr << "FATAL: lane-width mismatch on " << sweep.name << "\n";
      return 1;
    }

    // Trace generation, 1 thread vs chunk-parallel. Identity is enforced
    // on an order-sensitive full-trace checksum; on a single-core runner
    // chunking never engages and the series records planner overhead
    // instead of a speedup.
    dmv::par::set_num_threads(1);
    const Measurement trace_serial = measure(
        [&] { return run_trace_generation(sweep, options); }, repetitions);
    dmv::par::set_num_threads(hardware);
    const Measurement trace_parallel = measure(
        [&] { return run_trace_generation(sweep, options); }, repetitions);
    dmv::par::set_num_threads(1);
    if (trace_serial.checksum != trace_parallel.checksum) {
      std::cerr << "FATAL: trace-generation checksum mismatch on "
                << sweep.name << "\n";
      return 1;
    }
    const double trace_speedup = trace_serial.best_ms / trace_parallel.best_ms;
    std::cout << "  trace generation: serial " << trace_serial.best_ms
              << " ms, parallel(" << hardware << ") "
              << trace_parallel.best_ms << " ms  (" << trace_speedup << "x";
    if (hardware == 1) {
      std::cout << "; chunking never engages, ratio = planner overhead";
    }
    std::cout << ")\n";

    // Pipeline modes: same metrics, same engine, 1 thread — the only
    // variable is materialized vs streaming.
    const Measurement fused = measure(
        [&] { return run_fused(sweep, options, false); }, repetitions);
    const Measurement streaming = measure(
        [&] { return run_fused(sweep, options, true); }, repetitions);
    if (streaming.checksum != fused.checksum) {
      std::cerr << "FATAL: pipeline mode mismatch on " << sweep.name << "\n";
      return 1;
    }
    const double streaming_vs_materialized =
        fused.best_ms / streaming.best_ms;

    // Metrics only: pre-simulated traces, so the series isolates the
    // engine from the simulation cost that dominates the end-to-end
    // numbers.
    std::vector<AccessTrace> traces;
    traces.reserve(sweep.bindings.size());
    for (const SymbolMap& binding : sweep.bindings) {
      traces.push_back(dmv::sim::simulate(sweep.sdfg, binding, options));
    }
    const Measurement metrics_fused = measure(
        [&] {
          dmv::sim::MetricPipeline pipeline(bench_config());
          std::int64_t total = 0;
          for (const AccessTrace& trace : traces) {
            total += pipeline_checksum(pipeline.run(trace));
          }
          return total;
        },
        repetitions);
    if (metrics_fused.checksum != fused.checksum) {
      std::cerr << "FATAL: metrics-only checksum mismatch on " << sweep.name
                << "\n";
      return 1;
    }

    // Metric engine breakdown: the engine per consumer and for the full
    // set, over the same pre-simulated traces, at 1 thread.
    struct ConsumerSeries {
      const char* name;
      dmv::sim::PipelineConfig config;
      Measurement engine;
    };
    std::vector<ConsumerSeries> breakdown;
    {
      dmv::sim::PipelineConfig counts_only;
      breakdown.push_back({"counts", counts_only, {}});
      dmv::sim::PipelineConfig distances_only;
      distances_only.counts = false;
      distances_only.keep_distances = true;
      breakdown.push_back({"distances", distances_only, {}});
      dmv::sim::PipelineConfig misses_only;
      misses_only.counts = false;
      misses_only.miss_threshold_lines = 512;
      breakdown.push_back({"misses", misses_only, {}});
      dmv::sim::PipelineConfig stats_only;
      stats_only.counts = false;
      stats_only.element_stats = true;
      breakdown.push_back({"element_stats", stats_only, {}});
      dmv::sim::PipelineConfig cache_only;
      cache_only.counts = false;
      cache_only.cache = dmv::sim::CacheConfig{};
      breakdown.push_back({"cache", cache_only, {}});
      breakdown.push_back({"all", breakdown_config(), {}});
    }
    dmv::par::set_num_threads(1);
    for (ConsumerSeries& series : breakdown) {
      series.engine = measure(
          [&] {
            return static_cast<std::int64_t>(
                run_metrics(traces, series.config));
          },
          repetitions);
    }
    const ConsumerSeries& breakdown_all = breakdown.back();
    // Multi-core scaling of the full consumer set (engine partitions
    // track the knob), fingerprint-gated against the 1-thread run;
    // recorded as skipped on a 1-core runner.
    std::vector<std::pair<int, Measurement>> breakdown_threads;
    if (hardware > 1) {
      for (const int threads : {2, 8}) {
        dmv::par::set_num_threads(threads);
        const Measurement at_threads = measure(
            [&] {
              return static_cast<std::int64_t>(
                  run_metrics(traces, breakdown_all.config));
            },
            repetitions);
        if (at_threads.checksum != breakdown_all.engine.checksum) {
          std::cerr << "FATAL: metrics_breakdown thread mismatch on "
                    << sweep.name << " at " << threads << " threads\n";
          return 1;
        }
        breakdown_threads.emplace_back(threads, at_threads);
      }
      dmv::par::set_num_threads(1);
    }

    // Closed-form counts: counts-only run(sdfg) answered from boxes vs
    // simulate + run(trace), 1 thread, fingerprint-gated.
    if (!validate_closed_form_counts(sweep, options)) return 1;
    dmv::par::set_num_threads(1);
    const Measurement counts_simulated = measure(
        [&] {
          return static_cast<std::int64_t>(
              run_counts_simulated(sweep, options));
        },
        repetitions);
    const Measurement counts_closed_form = measure(
        [&] {
          return static_cast<std::int64_t>(
              run_counts_closed_form(sweep, options));
        },
        repetitions);
    if (counts_simulated.checksum != counts_closed_form.checksum) {
      std::cerr << "FATAL: closed_form_counts fingerprint mismatch on "
                << sweep.name << "\n";
      return 1;
    }
    const double closed_form_speedup =
        counts_simulated.best_ms / counts_closed_form.best_ms;

    // Session sweep: the same drag through the memoizing session layer.
    // Cold constructs a fresh session per repetition (cache empty); warm
    // re-drags a session that has seen every binding.
    const Measurement session_cold = measure(
        [&] {
          dmv::session::Session session = fresh_session(sweep, options);
          return run_session_pass(session, sweep);
        },
        repetitions);
    dmv::session::Session warm_session = fresh_session(sweep, options);
    run_session_pass(warm_session, sweep);
    const Measurement session_warm = measure(
        [&] { return run_session_pass(warm_session, sweep); }, repetitions);
    if (session_cold.checksum != streaming.checksum ||
        session_warm.checksum != streaming.checksum) {
      std::cerr << "FATAL: session sweep mismatch on " << sweep.name << "\n";
      return 1;
    }
    const double warm_speedup = session_cold.best_ms / session_warm.best_ms;

    const double batched_speedup = sim_scalar.best_ms / sim_batched.best_ms;
    std::cout << sweep.name << ": simulate-only W=1 " << sim_scalar.best_ms
              << " ms, W=4 " << sim_batched4.best_ms << " ms, W=8 "
              << sim_batched.best_ms << " ms  (" << batched_speedup
              << "x vs scalar)\n";
    std::cout << "  pipeline (1 thread): materialized " << fused.best_ms
              << " ms, streaming " << streaming.best_ms << " ms ("
              << streaming_vs_materialized << "x vs materialized)\n";
    std::cout << "  metrics only: " << metrics_fused.best_ms << " ms\n";
    std::cout << "  metrics breakdown (1 thread):";
    for (const ConsumerSeries& series : breakdown) {
      std::cout << " " << series.name << " " << series.engine.best_ms
                << " ms";
    }
    std::cout << "\n";
    if (breakdown_threads.empty()) {
      std::cout << "  metrics breakdown scaling: skipped (1 hardware "
                   "thread)\n";
    } else {
      std::cout << "  metrics breakdown scaling:";
      for (const auto& [threads, at_threads] : breakdown_threads) {
        std::cout << " " << threads << "t " << at_threads.best_ms << " ms";
      }
      std::cout << "\n";
    }
    std::cout << "  closed-form counts: simulated "
              << counts_simulated.best_ms << " ms, closed form "
              << counts_closed_form.best_ms << " ms ("
              << closed_form_speedup << "x, fingerprint identical)\n";
    std::cout << "  session (" << sweep.values.size() << " positions of "
              << sweep.symbol << "): cold " << session_cold.best_ms
              << " ms, warm " << session_warm.best_ms << " ms ("
              << warm_speedup << "x)\n";

    json << "    {\n      \"name\": \"" << sweep.name << "\",\n";
    json << "      \"bindings\": " << sweep.bindings.size() << ",\n";
    json << "      \"simulate_scalar_ms\": " << sim_scalar.best_ms << ",\n";
    json << "      \"simulate_batched_ms\": " << sim_batched.best_ms << ",\n";
    json << "      \"batched_speedup\": " << batched_speedup << ",\n";
    json << "      \"lane_ablation\": {\n";
    json << "        \"w1_ms\": " << sim_scalar.best_ms << ",\n";
    json << "        \"w4_ms\": " << sim_batched4.best_ms << ",\n";
    json << "        \"w8_ms\": " << sim_batched.best_ms << ",\n";
    json << "        \"checksum_identical\": true\n";
    json << "      },\n";
    json << "      \"trace_generation\": {\n";
    json << "        \"serial_ms\": " << trace_serial.best_ms << ",\n";
    json << "        \"parallel_ms\": " << trace_parallel.best_ms << ",\n";
    json << "        \"parallel_threads\": " << hardware << ",\n";
    json << "        \"speedup\": " << trace_speedup << ",\n";
    json << "        \"checksum_identical\": true";
    if (hardware == 1) {
      json << ",\n        \"note\": \"chunking never engages "
              "(1 hardware thread); ratio measures planner overhead\"";
    }
    json << "\n      },\n";
    json << "      \"pipeline_ablation\": {\n";
    json << "        \"fused_ms\": " << fused.best_ms << ",\n";
    json << "        \"streaming_ms\": " << streaming.best_ms << ",\n";
    json << "        \"streaming_vs_materialized\": "
         << streaming_vs_materialized << ",\n";
    json << "        \"metrics_fused_ms\": " << metrics_fused.best_ms
         << "\n";
    json << "      },\n";
    json << "      \"metrics_breakdown\": {\n";
    json << "        \"consumers\": [\n";
    for (std::size_t s = 0; s < breakdown.size(); ++s) {
      const ConsumerSeries& series = breakdown[s];
      json << "          {\"name\": \"" << series.name
           << "\", \"engine_ms\": " << series.engine.best_ms << "}"
           << (s + 1 < breakdown.size() ? "," : "") << "\n";
    }
    json << "        ],\n";
    json << "        \"engine_ms\": " << breakdown_all.engine.best_ms
         << ",\n";
    if (breakdown_threads.empty()) {
      json << "        \"thread_scaling\": \"skipped (1 hardware thread)\"\n";
    } else {
      json << "        \"thread_scaling\": [\n";
      for (std::size_t t = 0; t < breakdown_threads.size(); ++t) {
        json << "          {\"threads\": " << breakdown_threads[t].first
             << ", \"engine_ms\": " << breakdown_threads[t].second.best_ms
             << "}" << (t + 1 < breakdown_threads.size() ? "," : "")
             << "\n";
      }
      json << "        ]\n";
    }
    json << "      },\n";
    json << "      \"closed_form_counts\": {\n";
    json << "        \"simulated_ms\": " << counts_simulated.best_ms << ",\n";
    json << "        \"closed_form_ms\": " << counts_closed_form.best_ms
         << ",\n";
    json << "        \"speedup\": " << closed_form_speedup << ",\n";
    json << "        \"checksum_identical\": true\n";
    json << "      },\n";
    json << "      \"session\": {\n";
    json << "        \"bindings\": " << sweep.values.size() << ",\n";
    json << "        \"symbol\": \"" << sweep.symbol << "\",\n";
    json << "        \"cold_ms\": " << session_cold.best_ms << ",\n";
    json << "        \"warm_ms\": " << session_warm.best_ms << ",\n";
    json << "        \"warm_speedup\": " << warm_speedup << "\n";
    json << "      },\n";

    if (hardware == 1) {
      std::cout << "  thread scaling: skipped (1 hardware thread)\n";
      json << "      \"thread_scaling\": \"skipped (1 hardware thread)\"\n";
    } else {
      json << "      \"threads\": [\n";
      for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        const int threads = thread_counts[t];
        dmv::par::set_num_threads(threads);
        const Measurement parallel = measure(
            [&] { return run_fused(sweep, options, false); }, repetitions);
        if (parallel.checksum != fused.checksum) {
          std::cerr << "FATAL: parallel mismatch on " << sweep.name << " at "
                    << threads << " threads\n";
          return 1;
        }
        const double speedup = fused.best_ms / parallel.best_ms;
        std::cout << "  threads=" << threads << ": " << parallel.best_ms
                  << " ms  (" << speedup << "x vs serial)\n";
        json << "        {\"threads\": " << threads
             << ", \"ms\": " << parallel.best_ms
             << ", \"speedup_vs_serial\": " << speedup << "}"
             << (t + 1 < thread_counts.size() ? "," : "") << "\n";
      }
      json << "      ]\n";
    }
    json << "    }" << (w + 1 < cases.size() ? "," : "") << "\n";
    dmv::par::set_num_threads(1);
  }
  json << "  ],\n";

  // ---- slider_step ---------------------------------------------------
  //
  // The interactive latency the delta engine exists for: ONE K-slider
  // step on the fixed-capacity hdiff build, timed per mechanism.
  //   cold        fresh session, empty cache, no checkpoint;
  //   warm        re-request of a binding the session has seen
  //               (artifact-cache hit);
  //   symbolic    only the Tier-1 closed-form bundle, at unseen
  //               bindings (no simulation at all);
  //   chunk_delta a warm checkpoint stepped to an UNSEEN binding: only
  //               the appended k slice simulates and the fused metric
  //               state resumes in place.
  // Identity gate: the final delta step's checksum must equal a fresh
  // cold evaluation of the same binding, and every measured step must
  // actually classify as a chunk delta.
  {
    dmv::par::set_num_threads(1);
    dmv::ir::Sdfg fc = fixed_capacity_hdiff();
    const std::int64_t ij = 64;
    const std::int64_t kmax = 40;
    auto bind = [&](std::int64_t k) {
      return SymbolMap{{"I", ij}, {"J", ij}, {"K", k}, {"KMAX", kmax}};
    };
    // Per-step metric set: the interactive subscription (counts + miss
    // classification). element_stats stays off — its finalize re-sorts
    // every finite distance pair, an O(events) cost per request that
    // belongs to a details-panel click, not to every slider step.
    dmv::sim::PipelineConfig step_config;
    step_config.counts = true;
    step_config.miss_threshold_lines = 512;
    dmv::session::SessionConfig cfg;
    cfg.pipeline = step_config;
    const std::int64_t k_cold = 36;

    const Measurement cold = measure(
        [&] {
          dmv::session::Session s(fc, cfg);
          s.set_binding(bind(k_cold));
          return pipeline_checksum(*s.metrics());
        },
        repetitions);

    dmv::session::Session warm_s(fc, cfg);
    warm_s.set_binding(bind(k_cold));
    warm_s.metrics();
    const Measurement warm = measure(
        [&] {
          warm_s.set_symbol("K", k_cold);
          return pipeline_checksum(*warm_s.metrics());
        },
        repetitions);

    dmv::session::Session symbolic_s(fc, cfg);
    symbolic_s.set_binding(bind(2));
    symbolic_s.closed_form();  // Bundle built and cached up front.
    std::int64_t k_sym = 2;
    const Measurement symbolic = measure(
        [&] {
          symbolic_s.set_symbol("K", 2 + (++k_sym % 30));
          return symbolic_s.closed_form()->total_events;
        },
        repetitions);

    // Walk K upward through never-seen values so each measured step is
    // an artifact-cache MISS satisfied by the chunk-delta path alone.
    dmv::session::Session delta_s(fc, cfg);
    std::int64_t k_delta =
        k_cold - static_cast<std::int64_t>(repetitions) - 1;
    delta_s.set_binding(bind(k_delta));
    delta_s.metrics();  // Warm checkpoint at the drag's start.
    delta_s.reset_stats();
    const Measurement chunk_delta = measure(
        [&] {
          delta_s.set_symbol("K", ++k_delta);
          return pipeline_checksum(*delta_s.metrics());
        },
        repetitions);
    const dmv::session::SessionStats delta_stats = delta_s.stats();

    dmv::session::Session check(fc, cfg);
    check.set_binding(bind(k_delta));
    const bool identical =
        pipeline_checksum(*check.metrics()) == chunk_delta.checksum;
    if (!identical) {
      std::cerr << "FATAL: slider_step delta checksum mismatch\n";
      return 1;
    }
    if (delta_stats.steps_chunk_delta !=
        static_cast<std::int64_t>(repetitions)) {
      std::cerr << "FATAL: slider_step expected " << repetitions
                << " chunk-delta steps, got "
                << delta_stats.steps_chunk_delta << " (cold "
                << delta_stats.steps_cold << ")\n";
      return 1;
    }

    const double delta_speedup = cold.best_ms / chunk_delta.best_ms;
    std::cout << "slider step (fixed-capacity hdiff, I=J=" << ij
              << ", KMAX=" << kmax << ", K=" << k_cold << "): cold "
              << cold.best_ms << " ms, warm " << warm.best_ms
              << " ms, symbolic " << symbolic.best_ms
              << " ms, chunk-delta " << chunk_delta.best_ms << " ms  ("
              << delta_speedup << "x vs cold, checksums identical)\n";
    json << "  \"slider_step\": {\n";
    json << "    \"workload\": \"hdiff fixed-capacity Reordered\",\n";
    json << "    \"I\": " << ij << ", \"J\": " << ij << ", \"KMAX\": "
         << kmax << ", \"K\": " << k_cold << ",\n";
    json << "    \"cold_ms\": " << cold.best_ms << ",\n";
    json << "    \"warm_ms\": " << warm.best_ms << ",\n";
    json << "    \"symbolic_delta_ms\": " << symbolic.best_ms << ",\n";
    json << "    \"chunk_delta_ms\": " << chunk_delta.best_ms << ",\n";
    json << "    \"chunk_delta_speedup\": " << delta_speedup << ",\n";
    json << "    \"checksum_identical\": true,\n";
    json << "    \"steps\": {\"full_hit\": " << delta_stats.steps_full_hit
         << ", \"symbolic\": " << delta_stats.steps_symbolic
         << ", \"chunk_delta\": " << delta_stats.steps_chunk_delta
         << ", \"cold\": " << delta_stats.steps_cold << "}\n";
    json << "  },\n";
  }

  // ---- persistent_cache ----------------------------------------------
  //
  // The warm-start tier: one slider request served three ways.
  //   cold       fresh session, nothing cached anywhere — a full
  //              simulate + metric pass;
  //   ram_warm   re-request against a live session (RAM artifact hit);
  //   disk_warm  fresh session AND fresh shared cache over a populated
  //              cache directory — the restarted-process path: decode
  //              the DMVA artifact from disk instead of simulating.
  // Identity gate: all three checksums match, and every disk_warm
  // repetition actually hit the disk tier.
  {
    dmv::par::set_num_threads(1);
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "dmv_bench_persistent_cache";
    fs::remove_all(dir);
    const dmv::ir::Sdfg sdfg =
        dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline);
    const SymbolMap binding{{"I", 64}, {"J", 64}, {"K", 16}};
    dmv::session::SessionConfig cfg;
    cfg.pipeline = bench_config();
    const auto make_shared_cache = [&] {
      dmv::session::SharedArtifactCache::Config shared;
      shared.disk_dir = dir.string();
      shared.codecs.emplace_back(dmv::session::metrics_artifact_kind(),
                                 dmv::store::pipeline_result_codec());
      return std::make_shared<dmv::session::SharedArtifactCache>(shared);
    };

    const Measurement cold = measure(
        [&] {
          dmv::session::Session session(sdfg, cfg);
          session.set_binding(binding);
          return pipeline_checksum(*session.metrics());
        },
        repetitions);

    {
      // Populate the disk tier once (the prior run being warm-started).
      dmv::session::SessionConfig writer_cfg = cfg;
      writer_cfg.shared_cache = make_shared_cache();
      dmv::session::Session session(sdfg, writer_cfg);
      session.set_binding(binding);
      session.metrics();
    }

    dmv::session::SessionConfig ram_cfg = cfg;
    ram_cfg.shared_cache = make_shared_cache();
    dmv::session::Session ram_session(sdfg, ram_cfg);
    ram_session.set_binding(binding);
    ram_session.metrics();  // Promote disk -> RAM once, untimed.
    const Measurement ram_warm = measure(
        [&] { return pipeline_checksum(*ram_session.metrics()); },
        repetitions);

    std::int64_t disk_hits = 0;
    const Measurement disk_warm = measure(
        [&] {
          dmv::session::SessionConfig warm_cfg = cfg;
          warm_cfg.shared_cache = make_shared_cache();
          dmv::session::Session session(sdfg, warm_cfg);
          session.set_binding(binding);
          const std::int64_t checksum =
              pipeline_checksum(*session.metrics());
          disk_hits += warm_cfg.shared_cache->stats().disk_hits;
          return checksum;
        },
        repetitions);

    if (cold.checksum != ram_warm.checksum ||
        cold.checksum != disk_warm.checksum) {
      std::cerr << "FATAL: persistent-cache checksum mismatch\n";
      return 1;
    }
    if (disk_hits < repetitions) {
      std::cerr << "FATAL: persistent-cache disk_warm expected "
                << repetitions << " disk hits, got " << disk_hits << "\n";
      return 1;
    }
    fs::remove_all(dir);

    const double disk_vs_cold = cold.best_ms / disk_warm.best_ms;
    std::cout << "persistent cache (hdiff I=J=64 K=16): cold "
              << cold.best_ms << " ms, ram-warm " << ram_warm.best_ms
              << " ms, disk-warm " << disk_warm.best_ms << " ms  ("
              << disk_vs_cold << "x vs cold, checksums identical)\n";
    json << "  \"persistent_cache\": {\n";
    json << "    \"workload\": \"hdiff\",\n";
    json << "    \"cold_ms\": " << cold.best_ms << ",\n";
    json << "    \"ram_warm_ms\": " << ram_warm.best_ms << ",\n";
    json << "    \"disk_warm_ms\": " << disk_warm.best_ms << ",\n";
    json << "    \"disk_warm_speedup\": " << disk_vs_cold << ",\n";
    json << "    \"disk_hits\": " << disk_hits << ",\n";
    json << "    \"checksum_identical\": true\n";
    json << "  },\n";
  }

  // The symbolic engine's repeated analysis series per workload.
  {
    dmv::par::set_num_threads(1);
    constexpr int kSymbolicRounds = 40;
    json << "  \"symbolic_ops\": [\n";
    for (std::size_t w = 0; w < cases.size(); ++w) {
      const SweepCase& sweep = cases[w];
      const Measurement ops = measure(
          [&] { return run_symbolic_ops(sweep, kSymbolicRounds); },
          repetitions);
      std::cout << "symbolic ops (" << sweep.name << ", " << kSymbolicRounds
                << " rounds x " << sweep.bindings.size()
                << " bindings): " << ops.best_ms << " ms\n";
      json << "    {\"name\": \"" << sweep.name
           << "\", \"rounds\": " << kSymbolicRounds
           << ", \"bindings\": " << sweep.bindings.size()
           << ", \"ms\": " << ops.best_ms << "}"
           << (w + 1 < cases.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
  }

  std::cout << "wrote BENCH_sweep.json\n";
  return 0;
}
