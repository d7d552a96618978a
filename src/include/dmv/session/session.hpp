#pragma once

// Interactive session engine: memoized incremental recomputation.
//
// The compiled simulator and the metric engine make a SINGLE
// evaluation fast. This layer makes the interactive loop fast: a
// `Session` wraps a program, its current parameter binding, and a
// metric subscription set behind a byte-budgeted memoization cache, so
// dragging a slider back over visited values returns in cache-lookup
// time instead of re-simulating.
//
// Three mechanisms, mirroring what separates an interactive dataflow
// viewer from a fast batch engine:
//
//   * Memoization — every artifact (metric bundle, symbolic volume,
//     evaluated volume) is cached in one LRU, a private
//     SharedArtifactCache (artifact_cache.hpp), keyed by (program
//     content hash, metric-config hash, and the binding RESTRICTED to
//     the symbols the artifact can reach).
//   * Dependency-restricted keys — the reachability analysis
//     (analysis::simulation_symbols, Expr::depends_on) determines
//     which symbols each artifact actually depends on; symbols outside
//     that set never enter the key. Changing an unused symbol is
//     therefore a cache HIT, not an invalidation, and the symbolic
//     volume survives any amount of re-simulation. Program edits
//     change the content hash; stale entries simply become
//     unreachable and age out of the LRU.
//   * Delta recomputation — a metrics() miss runs
//     sim::MetricPipeline::run_delta against the session pipeline's
//     checkpoint: clean trace chunks are spliced and only dirty ones
//     re-simulated (docs/incremental.md).
//
// A getter computes at most the artifacts it returns: nothing is
// evaluated ahead of the client, so a hit is a lookup and the session
// holds one pipeline checkpoint.
//
// Determinism contract: every artifact returned by a Session is
// bit-identical to the corresponding uncached evaluation, at any
// thread count and at any eviction schedule, and every SessionStats
// counter is the same at any thread count. Cached values are
// immutable; eviction only ever causes a (deterministic) recomputation.
//
// Thread safety: a Session is NOT thread-safe — it is the state of one
// interactive client; concurrent clients should each own a Session.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "dmv/ir/sdfg.hpp"
#include "dmv/session/artifact_cache.hpp"
#include "dmv/sim/pipeline.hpp"

namespace dmv::session {

/// What the session computes and how much it may remember.
struct SessionConfig {
  /// Metric subscription set: which consumers every metrics() call
  /// drives.
  sim::PipelineConfig pipeline;
  /// Simulation engine knobs shared by all evaluations.
  sim::SimulationOptions simulation;

  /// LRU byte budget over all cached artifacts. The most recently
  /// inserted entry is always kept, even when it alone exceeds the
  /// budget (a cache that cannot hold one result would just thrash).
  std::size_t cache_budget_bytes = std::size_t{64} << 20;

  /// Optional process-global second tier (artifact_cache.hpp). When
  /// set, local misses consult it before computing, and every computed
  /// artifact is also published there — so identical
  /// programs in DIFFERENT sessions share entries while this session's
  /// cache_budget_bytes still bounds its private tier. Artifacts are
  /// immutable and deterministic, so sharing never changes results.
  std::shared_ptr<SharedArtifactCache> shared_cache;

  /// Read by nothing: the session no longer evaluates ahead of the
  /// client. Kept only because bench/ledger/reference.cpp assigns it;
  /// the ledger's next revision drops both.
  bool prefetch = true;
};

/// Cache accounting, cumulative since construction / reset_stats().
struct SessionStats {
  std::int64_t hits = 0;            ///< Artifact requests served cached.
  std::int64_t misses = 0;          ///< Requests that recomputed.
  /// Hits served by the process-global tier (config.shared_cache) after
  /// a local miss — i.e. another session (or an evicted incarnation of
  /// this one) computed the artifact. Subset of `hits`; always 0 when
  /// no shared cache is configured.
  std::int64_t shared_hits = 0;
  std::int64_t evictions = 0;       ///< Entries dropped by the byte budget.
  std::size_t cache_bytes = 0;      ///< Current payload bytes cached.
  std::size_t cache_entries = 0;    ///< Current entry count.

  // --- Interaction-step classification -------------------------------
  // A STEP is the span between binding changes (set_symbol/set_binding)
  // in which at least one artifact was requested. Each step is
  // classified by the most expensive mechanism it needed:
  //   full-hit       every request served from cache;
  //   symbolic-delta the symbolic volume or its value was (re)evaluated,
  //                  but nothing was simulated — including a
  //                  counts-only metric bundle the closed-form counter
  //                  answered (DeltaOutcome::Path::kClosedForm);
  //   chunk-delta    the pipeline patched its checkpoint (clean chunks
  //                  spliced, dirty ones re-simulated);
  //   cold           at least one full simulation ran.
  // A step closes at the next binding change. stats() is a pure read:
  // the copy it returns counts the in-progress step by its class so
  // far without closing it, so reading stats never splits a step. The
  // metric bundle's class comes from run_delta's outcome.
  std::int64_t steps_full_hit = 0;
  std::int64_t steps_symbolic = 0;
  std::int64_t steps_chunk_delta = 0;
  std::int64_t steps_cold = 0;

  // --- Pipeline phase breakdown --------------------------------------
  // Accumulated from MetricPipeline::last_timings() over every metric
  // evaluation this session ran (cache hits add nothing). Observability
  // only — never part of an artifact or cache key. Unlike the counters
  // above, these depend on the run and on the thread count.
  /// Trace generation / patch phase ms (0 for closed-form steps).
  double simulate_ms = 0.0;
  /// Metric consumption + finalize ms (a closed-form step's whole cost).
  double metrics_ms = 0.0;
  /// Metric worker partitions of the MOST RECENT evaluation's last
  /// engine feed (1 = it ran as one partition: one thread, a feed too
  /// small to split, or inside a pool task).
  int metric_partitions = 1;
};

/// One interactive client: a program, a current binding, a metric
/// subscription set, and the memoization state that makes re-visiting
/// bindings (and program versions) cheap. All getters return shared
/// ownership of immutable artifacts — they stay valid after eviction,
/// rebinding, or Session destruction.
class Session {
 public:
  explicit Session(ir::Sdfg program, SessionConfig config = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionConfig& config() const;
  const ir::Sdfg& program() const;

  /// Replaces the program (e.g. after a transform). Artifacts of the
  /// old version stay cached under its content hash — switching back
  /// is cheap until the LRU ages them out.
  void set_program(ir::Sdfg program);
  /// In-place edit: applies `edit` to the owned program, then rehashes.
  void edit_program(const std::function<void(ir::Sdfg&)>& edit);

  const symbolic::SymbolMap& binding() const;
  /// Wholesale rebinding.
  void set_binding(symbolic::SymbolMap binding);
  /// Slider move: binds one symbol.
  void set_symbol(const std::string& symbol, std::int64_t value);

  /// The metric bundle for the current binding under config().pipeline.
  /// Cache key: (program, config, binding restricted to
  /// metric_symbols()). A hit is a lookup; a miss evaluates this one
  /// bundle.
  std::shared_ptr<const sim::PipelineResult> metrics();

  /// The symbolic total-movement volume evaluated at the current
  /// binding. The volume expression is program-keyed and survives any
  /// re-simulation; the value is keyed only by the symbols it reaches.
  std::int64_t movement_bytes();

  /// Symbols that can reach any simulated metric for the current
  /// program (analysis::simulation_symbols).
  const std::set<std::string>& metric_symbols() const;

  /// The exact cache key metrics() would use for the current (program,
  /// config, binding) — the serving layer keys request coalescing on it
  /// so concurrent drags that would simulate the same thing collapse
  /// into one computation (serve/server.hpp).
  ArtifactKey metrics_cache_key() const;

  SessionStats stats() const;
  void reset_stats();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// ArtifactKey::kind value of the metrics artifact (the cached
/// sim::PipelineResult). The serving layer uses it to register the
/// store::pipeline_result_codec() disk codec for exactly this artifact
/// — the one whose recomputation costs a simulation — without exposing
/// the session-internal Kind enum.
std::uint8_t metrics_artifact_kind();

}  // namespace dmv::session
