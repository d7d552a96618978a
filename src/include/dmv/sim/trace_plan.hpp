#pragma once

// Deterministic chunk planning for parallel trace generation.
//
// The simulator's event stream is fully determined by the SDFG and the
// symbol binding: every top-level map's iteration counts and every
// tasklet/copy's per-iteration memlet event count are exactly computable
// BEFORE generation. plan_trace() exploits that to split the trace into
// contiguous chunks — one or more per top-level map (sliced along the
// outermost dimension), one per top-level tasklet or copy — each with a
// precomputed (event_offset, event_count, execution_offset,
// execution_count). An event's time is its index in the stream, so
// event_offset is also the time of the chunk's first event.
//
// With the plan in hand, generation parallelizes without stitching or
// locks: the EventList is sized to total_events once, and each chunk's
// Simulator clone writes its disjoint column slice (materialized path),
// or fills a reusable buffer that MetricPipeline::run_streaming feeds to
// its metric engine in chunk order, one round behind generation
// (streaming path). Either way the output is bit-identical to serial at
// any thread count. See docs/simulation.md for the full safety argument.
//
// Planning is exact, not estimated: an analytic fast path multiplies
// iteration-count products by per-iteration event counts when extents
// are invariant in the map's own parameters, and falls back to
// enumerating dependent (triangular/tiled) dimensions. Anything the
// planner cannot model exactly — non-positive steps, unbound symbols,
// copy size mismatches — marks the plan non-parallelizable and the
// caller runs the serial engine, which surfaces the identical error
// behavior.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// One contiguous slice of the serial event stream.
struct TraceChunk {
  int state = 0;                  ///< Index into sdfg.states().
  ir::NodeId node = ir::kNoNode;  ///< Top-level map entry/tasklet/access.
  /// For map chunks: the half-open range of outermost-dimension ORDINALS
  /// this chunk executes (value = begin + ordinal*step). Serial chunks
  /// (tasklet/copy) use [0, 1).
  std::int64_t outer_begin = 0;
  std::int64_t outer_count = 0;
  /// Position of the chunk's events in the serial stream.
  std::int64_t event_offset = 0;
  std::int64_t event_count = 0;
  /// Position of the chunk's tasklet-execution ids.
  std::int64_t execution_offset = 0;
  std::int64_t execution_count = 0;
};

struct TracePlan {
  /// False when any part of the program could not be modeled exactly;
  /// the caller must fall back to serial generation.
  bool parallelizable = false;
  std::int64_t total_events = 0;
  std::int64_t total_executions = 0;
  /// Chunks in serial emission order; offsets are contiguous.
  std::vector<TraceChunk> chunks;
};

/// Computes the exact chunk decomposition of simulate()'s event stream
/// under `symbols`. Top-level maps are split along their outermost
/// dimension into at most `max_chunks_per_map` pieces balanced by event
/// count (0 = derive from dmv::par::num_threads()). Never throws: any
/// modeling failure yields parallelizable == false. No simulation option
/// changes the plan, so `options` is not read.
TracePlan plan_trace(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options,
                     int max_chunks_per_map = 0);

/// Arena variant reusing `plan.chunks` capacity across sweep steps.
void plan_trace_into(const Sdfg& sdfg, const SymbolMap& symbols,
                     int max_chunks_per_map, TracePlan& plan);

/// Reusable parallel-generation state, kept alongside the sweep arena so
/// a slider sweep pays the allocations once (sim.hpp forward-declares
/// this for the simulate_into parameter).
struct TraceArena {
  TracePlan plan;
  /// run_streaming's chunk buffers: one per generating task, times two
  /// (the round being generated and the round being fed).
  std::vector<EventList> chunk_buffers;
};

/// Generates exactly `chunk` of a plan for this (sdfg, symbols) pair,
/// at absolute event positions with absolute execution ids. `options`
/// picks the lane width. `header` supplies the placed container layouts
/// (place_containers, or any trace simulate() returns for the same
/// binding). When `absolute`, `out` must be pre-sized to the plan's
/// total and the chunk's events are written AT their [event_offset,
/// event_offset + event_count) slice indices (the delta-recomputation
/// engine's dirty-chunk writer); otherwise they are appended
/// (run_streaming's chunk buffers, and the test hook that validates a
/// plan chunk by chunk against serial emission). Throws std::logic_error
/// if the chunk's generated event or execution count disagrees with the
/// plan.
void simulate_chunk(const Sdfg& sdfg, const SymbolMap& symbols,
                    const SimulationOptions& options,
                    const AccessTrace& header, const TraceChunk& chunk,
                    EventList& out, bool absolute);

/// Dependency symbol set of each chunk, index-aligned with plan.chunks:
/// the declared program symbols that can change the chunk's event
/// PAYLOAD (container / flat / is_write columns) while the plan shape
/// stays fixed. Per chunk this is a conservative superset of the free
/// symbols of
///   * the chunk scope's map range expressions — excluding the already-
///     chunked outermost dimension's END bound, whose changes can only
///     add or remove outer ordinals and therefore always surface as a
///     plan-shape difference (chunk counts/offsets change);
///   * every EVENT-GENERATING memlet subset inside the scope — tasklet
///     reads/writes and access-to-access copies (with other_subset).
///     Map-boundary routing memlets never emit events and are excluded;
///   * strides / start offset of every container the scope references
///     (they determine the flat indices). Container SHAPE is excluded:
///     for an in-bounds program it only sizes the placed buffer, which
///     is a metric-layer (layout) concern, not an event-payload one.
/// A chunk whose dependency set is disjoint from a binding delta emits a
/// byte-identical event slice under the new binding — the CLEAN
/// classification of the delta engine. Chunks of the same top-level node
/// share one set.
std::vector<std::set<std::string>> chunk_dependencies(const Sdfg& sdfg,
                                                      const TracePlan& plan);

}  // namespace dmv::sim
