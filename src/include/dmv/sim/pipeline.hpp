#pragma once

// The metric pipeline: the one implementation of every local-view
// metric.
//
// The interactive loop recomputes EVERY derived metric per slider
// position. MetricPipeline drives all per-event metric consumers
// (access counts, stack distances, miss classification, exact cache
// simulation, element distance stats, physical movement) through ONE
// resumable, partitioned metric engine that derives each event's cache
// line once, and keeps all working memory in an arena that survives
// across bindings of a sweep. A single metric — say, the distances of
// one trace — is one run with only that consumer enabled.
//
// Every entry point feeds that engine (see docs/simulation.md, "Feed
// and resume"):
//   * run(trace) — one feed of an existing AccessTrace;
//   * run(sdfg) — simulate into the arena's reusable trace buffer, then
//     one feed;
//   * run_delta — the same cold path, then checkpointed: later steps
//     feed a patched trace from event 0, or resume the carried state
//     and feed only an appended suffix. Every session::Session
//     evaluation, and so every served step, takes this entry point;
//   * run_streaming — generates fine plan chunks in rounds of pool
//     tasks and feeds each round's chunks while the next round is
//     generated, so no trace-sized event vector is ever allocated.
//
// Except when no trace is needed: a config with no per-event consumer
// (!needs_distances() && !cache) makes run(sdfg), run_streaming and
// run_delta ask the closed-form counter first, which sums weighted
// translated boxes for rectangular maps with `param + constant`
// subsets and simulates nothing; programs outside that rule fall
// through to the engine unchanged (docs/simulation.md, "Closed-form
// counts").
//
// Bit-identical contract: every output is the same in every mode, at
// any thread count and partitioning, and equals a small serial oracle
// (tests/standalone_reference.hpp) bit for bit — enforced by
// pipeline_test, metric_merge_test, closed_form_counts_test and the CI
// determinism gates.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// Which consumers the metric engine drives. Distances are computed
/// whenever any consumer needs them (misses, element stats, movement,
/// or keep_distances).
struct PipelineConfig {
  int line_size = 64;
  /// Per-element read/write counts.
  bool counts = true;
  /// Cold/capacity classification at this LRU threshold (in lines);
  /// 0 disables, a negative value is rejected.
  std::int64_t miss_threshold_lines = 0;
  /// Store the per-event distance vector (O(events) memory — leave off
  /// in streaming mode unless the raw distances are needed).
  bool keep_distances = false;
  /// Per-container ElementDistanceStats.
  bool element_stats = false;
  /// Exact set-associative LRU simulation.
  std::optional<CacheConfig> cache = std::nullopt;
  /// Physical movement estimate (misses x line size); requires
  /// miss_threshold_lines > 0.
  bool movement = false;

  bool needs_distances() const {
    return miss_threshold_lines > 0 || keep_distances || element_stats ||
           movement;
  }
};

/// Outputs of one pipeline run. Only the consumers enabled in the config
/// are populated; the rest stay default-constructed. The result owns
/// its payload (no aliasing into pipeline arenas) — safe to retain,
/// share, and cache beyond the pipeline's lifetime.
struct PipelineResult {
  std::int64_t events = 0;
  std::int64_t executions = 0;
  /// Container names, index-aligned with every per-container vector
  /// below — lets consumers resolve names without holding the trace.
  std::vector<std::string> containers;
  /// Index of a named container, or -1 when absent.
  int container_index(const std::string& name) const;
  AccessCounts counts;
  StackDistanceResult distances;
  MissReport misses;
  std::vector<ElementDistanceStats> element_stats;  ///< Per container.
  CacheSimResult cache;
  MovementEstimate movement;
};

/// How run_delta() satisfied one step — the observability record of the
/// delta recomputation engine (surfaced through session::SessionStats
/// and the bench harness).
struct DeltaOutcome {
  enum class Path {
    kCold,        ///< Full simulate + full metric replay.
    kNoChange,    ///< Binding identical to the checkpoint; result reused.
    kChunkDelta,  ///< Clean chunks spliced, dirty chunks re-simulated.
    kClosedForm,  ///< Counts-only step answered without a trace.
  };
  Path path = Path::kCold;
  /// Chunk-delta only: true when the metric state was RESUMED from the
  /// checkpoint (append-only step) instead of replayed from event 0.
  bool resumed = false;
  std::int64_t chunks_total = 0;
  std::int64_t chunks_clean = 0;
  std::int64_t chunks_dirty = 0;
  /// Why the step was simulated (static string, never null): for a
  /// counts-only config, why the closed-form counter declined (on cold
  /// and chunk-delta steps alike); otherwise why the delta engine fell
  /// back to kCold. Empty on kNoChange and kClosedForm.
  const char* reason = "";
};

/// Wall-clock breakdown of the most recent run/run_streaming/run_delta
/// call — observability only (surfaced through session::SessionStats
/// and dmv_serve `stats`), never part of a result or cache key.
struct PhaseTimings {
  /// Trace generation / patching ms (0 for run(trace) and closed-form
  /// answers; run_streaming interleaves generation and consumption, so
  /// its whole cost lands here).
  double simulate_ms = 0.0;
  /// Metric consumption + finalize ms (a closed-form answer's whole
  /// cost).
  double metrics_ms = 0.0;
  /// Largest metric worker-partition count of the engine's last feed
  /// (1 = the whole feed ran as one partition).
  int partitions = 1;
};

/// Stable 64-bit fingerprint of a config, folding in every field that
/// can change an output. Two configs with equal fingerprints produce
/// identical results for the same trace; the session layer uses it as
/// the metric-config component of its cache keys.
std::uint64_t fingerprint(const PipelineConfig& config);

/// Stable 64-bit fingerprint of the simulator's output rules, the
/// simulation component of session cache keys and disk keys. No
/// SimulationOptions field changes the trace (lane_width is a
/// bit-identical execution strategy), so every options value has the
/// same fingerprint, 0x9b429300c601833b.
std::uint64_t fingerprint(const SimulationOptions& options);

/// Approximate heap footprint of a result's payload (vectors; the
/// struct itself excluded). Used for cache byte budgeting — an estimate,
/// not an allocator-exact measurement.
std::size_t approx_size_bytes(const PipelineResult& result);

/// Drives every enabled metric through one metric engine over a trace.
///
/// Ownership: the pipeline owns an internal arena (trace buffer, line
/// columns, Fenwick trees, per-element tallies) that persists across run
/// calls — that reuse is the point. Returned PipelineResults own their
/// payload outright and never alias the arena; they stay valid after the
/// pipeline is destroyed.
///
/// Thread safety: a MetricPipeline is NOT thread-safe — every run call
/// mutates the shared arena, so give each concurrent caller its own
/// instance (each session keeps one). Calls are internally serial;
/// results are bit-identical at any dmv::par::num_threads() setting.
class MetricPipeline {
 public:
  explicit MetricPipeline(PipelineConfig config = {});
  ~MetricPipeline();
  MetricPipeline(MetricPipeline&&) noexcept;
  MetricPipeline& operator=(MetricPipeline&&) noexcept;
  MetricPipeline(const MetricPipeline&) = delete;
  MetricPipeline& operator=(const MetricPipeline&) = delete;

  const PipelineConfig& config() const { return config_; }

  /// One engine feed over an existing trace. All per-line and
  /// per-element state comes from the arena (reused across calls).
  PipelineResult run(const AccessTrace& trace);

  /// Simulates into the arena's reusable trace buffer, then feeds it to
  /// the engine. One binding of a materialized sweep.
  PipelineResult run(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options = {});

  /// Delta recomputation: bit-identical to run(sdfg, symbols, options)
  /// but reuses the previous call's checkpoint when only `symbols`
  /// changed. The engine plans the trace at fine fixed granularity,
  /// classifies each chunk clean/dirty against the binding delta
  /// (chunk_dependencies), splices clean event slices from the
  /// checkpointed trace, re-simulates only dirty chunks, and re-feeds the
  /// metric engine — resuming its carried state for append-only steps.
  /// `program_version` is the caller's fingerprint of the Sdfg structure
  /// (the session layer passes its program hash); a mismatch or an
  /// unparallelizable plan falls back to the cold path.
  /// Interleaving run()/run_streaming() calls invalidates the
  /// checkpoint, and so does a counts-only step the closed-form counter
  /// answers (kClosedForm: no trace exists to splice). Outcome
  /// reporting via `outcome` is optional.
  PipelineResult run_delta(const Sdfg& sdfg, std::uint64_t program_version,
                           const SymbolMap& symbols,
                           const SimulationOptions& options = {},
                           DeltaOutcome* outcome = nullptr);

  /// Streaming: plans the trace at run_delta's fine granularity and
  /// walks the chunks in rounds — each round generates the next
  /// num_threads() - 1 chunks (at least one) while one more task feeds
  /// the previous round's chunks to the engine in chunk order.
  /// Event memory is two rounds of chunk buffers, never the trace:
  /// event_storage_bytes() stays 0. The whole cost is reported as
  /// simulate_ms, the feed as one partition.
  PipelineResult run_streaming(const Sdfg& sdfg, const SymbolMap& symbols,
                               const SimulationOptions& options = {});

  /// Bytes reserved by the arena's event columns: >0 after a
  /// materialized run, exactly 0 after streaming-only use — the
  /// bounded-event-memory contract the streaming test asserts.
  std::size_t event_storage_bytes() const;

  /// Phase breakdown of the most recent run/run_streaming/run_delta
  /// call (see PhaseTimings).
  const PhaseTimings& last_timings() const { return timings_; }

 private:
  PipelineConfig config_;
  struct Arena;
  std::unique_ptr<Arena> arena_;
  PhaseTimings timings_;

  void generate(const Sdfg& sdfg, const SymbolMap& symbols,
                const SimulationOptions& options);
};

}  // namespace dmv::sim
