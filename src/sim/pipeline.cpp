#include "dmv/sim/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dmv/symbolic/expr.hpp"

#include "dmv/par/par.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/util/fnv1a.hpp"
#include "closed_form_counts.hpp"
#include "metric_detail.hpp"
#include "metric_merge.hpp"

namespace dmv::sim {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// All buffers that survive across run() calls — the sweep-scoped
// memory-reuse half of the pipeline. A slider sweep pays for the trace
// columns and the engine's line columns, Fenwick trees, per-line state
// and per-element tallies once instead of once per binding.
struct ArenaState {
  AccessTrace trace;        ///< run(sdfg) materialization target.
  TraceArena trace_arena;   ///< Chunk plan + streaming chunk buffers.
  merge::Engine engine;     ///< Metric state (run_delta: the checkpoint's).

  // --- run_delta() checkpoint -------------------------------------------
  // `trace` doubles as the checkpoint's front event buffer and `engine`
  // holds its un-finalized metric state; the fields below remember which
  // (program, binding) produced them and the fine-grained chunk
  // plan that indexes the trace, so an append-only step can resume
  // feeding where the previous one stopped. Any public run() /
  // run_streaming() call re-begins the engine and therefore invalidates
  // the checkpoint.
  bool ckpt_valid = false;
  std::uint64_t ckpt_program = 0;   ///< Caller's SDFG-structure version.
  SymbolMap ckpt_binding;
  TracePlan ckpt_plan;              ///< Delta-granularity plan of `trace`.
  TracePlan scratch_plan;           ///< New-binding plan (swapped on commit).
  EventList back_events;            ///< Patch target (swapped with trace).
  AccessTrace scratch_header;       ///< New-binding container placement.
};

// Delta and streaming plans use a fixed fine granularity instead of the
// thread-derived default: with max_chunks_per_map this large, plan_trace
// clamps the per-chunk target to kMinChunkEvents, so chunk BOUNDARIES
// depend only on the program and the binding — never on the machine.
// For run_delta the same outer ordinal then lands in the same chunk
// across steps, which is what makes prefix matching against the
// checkpointed plan meaningful; for run_streaming it bounds each chunk
// buffer by max(kMinChunkEvents, one outer ordinal) at any thread count.
constexpr int kDeltaMaxChunks = 1 << 20;

// Feeds events [from, size) to the engine.
void feed_events(merge::Engine& engine, const EventList& events,
                 std::size_t from) {
  engine.feed(events.container_column().data() + from,
              events.flat_column().data() + from,
              events.write_column().data() + from, events.size() - from);
}

// A config with no per-event consumer (no distances, no exact cache)
// asks the closed-form counter first. Returns nullptr when the counter
// answered into `result` — no simulation, the counter's time as metric
// time, one partition — and otherwise why it did not: the counter's
// decline, or "" for configs it never serves.
const char* try_closed_form(const PipelineConfig& config, const Sdfg& sdfg,
                            const SymbolMap& symbols, PipelineResult& result,
                            PhaseTimings& timings) {
  if (config.needs_distances() || config.cache) return "";
  const auto start = Clock::now();
  const char* reason =
      detail::closed_form_counts(sdfg, symbols, config.counts, result);
  if (reason) {
    result = PipelineResult{};  // Frees partial counts before simulating.
  } else {
    timings = {0.0, ms_since(start), 1};
  }
  return reason;
}

}  // namespace

struct MetricPipeline::Arena : ArenaState {};

int PipelineResult::container_index(const std::string& name) const {
  for (std::size_t c = 0; c < containers.size(); ++c) {
    if (containers[c] == name) return static_cast<int>(c);
  }
  return -1;
}

std::uint64_t fingerprint(const PipelineConfig& config) {
  // FNV-1a over every output-relevant field.
  std::uint64_t hash = util::kFnvOffset;
  auto mix = [&hash](std::uint64_t value) { hash = util::fnv1a(hash, value); };
  mix(static_cast<std::uint64_t>(config.line_size));
  mix(config.counts ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.miss_threshold_lines));
  mix(config.keep_distances ? 1 : 0);
  mix(config.element_stats ? 1 : 0);
  mix(config.cache.has_value() ? 1 : 0);
  if (config.cache) {
    mix(static_cast<std::uint64_t>(config.cache->line_size));
    mix(static_cast<std::uint64_t>(config.cache->total_size));
    mix(static_cast<std::uint64_t>(config.cache->ways));
  }
  mix(config.movement ? 1 : 0);
  return hash;
}

std::uint64_t fingerprint(const SimulationOptions& /*options*/) {
  // FNV-1a over the placement alignment (64) and the WCR rule (0: a WCR
  // update emits no read event). Both are fixed; disk keys written by
  // earlier builds hashed them this way, so those keys stay valid.
  return util::fnv1a(util::fnv1a(util::kFnvOffset, 64), 0);
}

std::size_t approx_size_bytes(const PipelineResult& result) {
  std::size_t bytes = 0;
  for (const std::string& name : result.containers) {
    bytes += name.size() + sizeof(std::string);
  }
  auto column_bytes = [](const CountColumn& column) {
    return column.size() * column.byte_width();
  };
  auto columns = [&](const std::vector<CountColumn>& v) {
    bytes += v.size() * sizeof(CountColumn);
    for (const CountColumn& column : v) bytes += column_bytes(column);
  };
  columns(result.counts.reads);
  columns(result.counts.writes);
  bytes += result.distances.distances.size() * sizeof(std::int64_t);
  bytes += result.misses.per_container.size() * sizeof(MissStats);
  columns(result.misses.element_misses);
  for (const ElementDistanceStats& stats : result.element_stats) {
    bytes += (stats.min.size() + stats.median.size() + stats.max.size()) *
                 sizeof(std::int64_t) +
             column_bytes(stats.cold_count);
  }
  bytes += result.element_stats.size() * sizeof(ElementDistanceStats);
  bytes += result.cache.per_container.size() * sizeof(MissStats);
  bytes += result.movement.bytes_per_container.size() * sizeof(std::int64_t);
  return bytes;
}

MetricPipeline::MetricPipeline(PipelineConfig config)
    : config_(config), arena_(std::make_unique<Arena>()) {
  if (config_.miss_threshold_lines < 0) {
    throw std::invalid_argument(
        "MetricPipeline: negative miss_threshold_lines");
  }
  if (config_.movement && config_.miss_threshold_lines <= 0) {
    throw std::invalid_argument(
        "MetricPipeline: movement needs miss_threshold_lines > 0");
  }
  if (config_.line_size <= 0) {
    throw std::invalid_argument("MetricPipeline: bad line size");
  }
  if (config_.cache) detail::cache_geometry(*config_.cache);  // Validate early.
}

MetricPipeline::~MetricPipeline() = default;
MetricPipeline::MetricPipeline(MetricPipeline&&) noexcept = default;
MetricPipeline& MetricPipeline::operator=(MetricPipeline&&) noexcept =
    default;

PipelineResult MetricPipeline::run(const AccessTrace& trace) {
  // Re-beginning the engine drops the delta checkpoint's metric state.
  arena_->ckpt_valid = false;
  const auto start = Clock::now();
  merge::Engine& engine = arena_->engine;
  engine.begin(config_, trace);
  feed_events(engine, trace.events, 0);
  PipelineResult result = engine.finish(trace.executions);
  timings_ = {0.0, ms_since(start), engine.partitions()};
  return result;
}

// Simulates into the arena trace (chunk-parallel when the plan splits)
// and feeds the whole trace to a freshly begun engine, leaving it
// un-finalized. Shared by run(sdfg) and run_delta's cold path.
void MetricPipeline::generate(const Sdfg& sdfg, const SymbolMap& symbols,
                              const SimulationOptions& options) {
  const auto start = Clock::now();
  simulate_into(sdfg, symbols, options, arena_->trace, &arena_->trace_arena);
  const double simulate_ms = ms_since(start);
  const auto metrics_start = Clock::now();
  merge::Engine& engine = arena_->engine;
  engine.begin(config_, arena_->trace);
  feed_events(engine, arena_->trace.events, 0);
  timings_ = {simulate_ms, ms_since(metrics_start), engine.partitions()};
}

PipelineResult MetricPipeline::run(const Sdfg& sdfg, const SymbolMap& symbols,
                                   const SimulationOptions& options) {
  arena_->ckpt_valid = false;
  PipelineResult result;
  if (!try_closed_form(config_, sdfg, symbols, result, timings_)) {
    return result;
  }
  generate(sdfg, symbols, options);
  const auto finish_start = Clock::now();
  result = arena_->engine.finish(arena_->trace.executions);
  timings_.metrics_ms += ms_since(finish_start);
  return result;
}

PipelineResult MetricPipeline::run_streaming(const Sdfg& sdfg,
                                             const SymbolMap& symbols,
                                             const SimulationOptions& options) {
  arena_->ckpt_valid = false;
  PipelineResult result;
  if (!try_closed_form(config_, sdfg, symbols, result, timings_)) {
    return result;
  }
  const auto start = Clock::now();
  merge::Engine& engine = arena_->engine;
  TracePlan& plan = arena_->trace_arena.plan;
  plan_trace_into(sdfg, symbols, kDeltaMaxChunks, plan);
  if (!plan.parallelizable) {
    // The planner declines only programs the simulator rejects or whose
    // counts overflow int64, so this raises the simulator's own error.
    const AccessTrace trace = simulate(sdfg, symbols, options);
    engine.begin(config_, trace, /*fan_out=*/false);
    feed_events(engine, trace.events, 0);
    result = engine.finish(trace.executions);
  } else {
    AccessTrace header;
    place_containers(sdfg, symbols, header);
    // Round r generates chunks [r * width, (r + 1) * width) into one bank
    // of buffers while one more task feeds round r - 1's chunks, from the
    // other bank, to the engine in chunk order; round 0's extra task
    // begins the engine. parallel_tasks returns only once every task is
    // done, so no bank is written while it is read. The feed runs as one
    // partition (fan_out off), in a pool task or on the serial fallback.
    const std::size_t width =
        static_cast<std::size_t>(std::max(1, par::num_threads() - 1));
    std::vector<EventList>& buffers = arena_->trace_arena.chunk_buffers;
    if (buffers.size() < 2 * width) buffers.resize(2 * width);
    const std::size_t chunks = plan.chunks.size();
    const std::size_t rounds = (chunks + width - 1) / width;
    for (std::size_t round = 0; round <= rounds; ++round) {
      const std::size_t first = round * width;
      const std::size_t count =
          first < chunks ? std::min(width, chunks - first) : 0;
      EventList* generating = &buffers[(round % 2) * width];
      const EventList* feeding = &buffers[(1 - round % 2) * width];
      par::parallel_tasks(count + 1, [&](std::size_t t) {
        if (t < count) {
          generating[t].clear();
          simulate_chunk(sdfg, symbols, options, header,
                         plan.chunks[first + t], generating[t],
                         /*absolute=*/false);
        } else if (round == 0) {
          engine.begin(config_, header, /*fan_out=*/false);
        } else {
          const std::size_t fed_first = first - width;
          for (std::size_t c = fed_first; c < std::min(first, chunks); ++c) {
            feed_events(engine, feeding[c - fed_first], 0);
          }
        }
      });
    }
    result = engine.finish(plan.total_executions);
  }
  // Generation and consumption overlap; the breakdown collapses into
  // simulate_ms (see PhaseTimings).
  timings_ = {ms_since(start), 0.0, engine.partitions()};
  return result;
}

namespace {

struct ChunkMatch {
  bool clean = false;
  std::int64_t old_event_offset = 0;
  std::int64_t old_execution_offset = 0;
};

// One warm step against a valid checkpoint. Returns true with `result`
// populated when the step was satisfied without a cold recompute
// (kNoChange or kChunkDelta); returns false — checkpoint left intact —
// when the engine must fall back (outcome.reason says why).
bool delta_step(const PipelineConfig& config, ArenaState& arena,
                const Sdfg& sdfg, const SymbolMap& symbols,
                const SimulationOptions& options, DeltaOutcome& outcome,
                PipelineResult& result, PhaseTimings& timings) {
  const auto start = Clock::now();
  const std::set<std::string> changed =
      symbolic::changed_symbols(arena.ckpt_binding, symbols);
  if (changed.empty()) {
    outcome.path = DeltaOutcome::Path::kNoChange;
    outcome.reason = "";
    outcome.chunks_total =
        static_cast<std::int64_t>(arena.ckpt_plan.chunks.size());
    outcome.chunks_clean = outcome.chunks_total;
    result = arena.engine.snapshot(arena.trace.executions);
    timings = {0.0, ms_since(start), 1};
    return true;
  }

  const std::int64_t n_old = arena.ckpt_plan.total_events;
  if (n_old != static_cast<std::int64_t>(arena.trace.events.size())) {
    outcome.reason = "checkpoint trace out of sync";
    return false;
  }

  plan_trace_into(sdfg, symbols, kDeltaMaxChunks, arena.scratch_plan);
  const TracePlan& plan_new = arena.scratch_plan;
  const TracePlan& plan_old = arena.ckpt_plan;
  if (!plan_new.parallelizable) {
    outcome.reason = "new binding not exactly plannable";
    return false;
  }

  const std::vector<std::set<std::string>> deps =
      chunk_dependencies(sdfg, plan_new);

  // Prefix-match new chunks against old ones of the same (state, node)
  // group: the k-th new chunk of a group reuses the k-th old one when
  // its ordinal range and event/execution counts agree AND its
  // dependency set is disjoint from the binding delta.
  std::map<std::pair<int, ir::NodeId>, std::pair<std::size_t, std::size_t>>
      old_groups;
  for (std::size_t i = 0; i < plan_old.chunks.size();) {
    std::size_t j = i + 1;
    while (j < plan_old.chunks.size() &&
           plan_old.chunks[j].state == plan_old.chunks[i].state &&
           plan_old.chunks[j].node == plan_old.chunks[i].node) {
      ++j;
    }
    old_groups.emplace(
        std::make_pair(plan_old.chunks[i].state, plan_old.chunks[i].node),
        std::make_pair(i, j));
    i = j;
  }

  std::vector<ChunkMatch> matches(plan_new.chunks.size());
  std::int64_t clean_chunks = 0;
  std::size_t old_reused_in_place = 0;
  for (std::size_t g = 0; g < plan_new.chunks.size();) {
    std::size_t h = g + 1;
    while (h < plan_new.chunks.size() &&
           plan_new.chunks[h].state == plan_new.chunks[g].state &&
           plan_new.chunks[h].node == plan_new.chunks[g].node) {
      ++h;
    }
    const auto group = old_groups.find(
        std::make_pair(plan_new.chunks[g].state, plan_new.chunks[g].node));
    const std::size_t old_size =
        group == old_groups.end() ? 0
                                  : group->second.second - group->second.first;
    for (std::size_t k = 0; g + k < h; ++k) {
      const std::size_t idx = g + k;
      if (k >= old_size) continue;
      const TraceChunk& oc = plan_old.chunks[group->second.first + k];
      const TraceChunk& nc = plan_new.chunks[idx];
      if (oc.outer_begin != nc.outer_begin ||
          oc.outer_count != nc.outer_count ||
          oc.event_count != nc.event_count ||
          oc.execution_count != nc.execution_count) {
        continue;
      }
      bool dirty = false;
      const std::set<std::string>& dep = deps[idx];
      for (const std::string& name : changed) {
        if (dep.count(name)) {
          dirty = true;
          break;
        }
      }
      if (dirty) continue;
      matches[idx].clean = true;
      matches[idx].old_event_offset = oc.event_offset;
      matches[idx].old_execution_offset = oc.execution_offset;
      ++clean_chunks;
      if (oc.event_offset == nc.event_offset &&
          oc.execution_offset == nc.execution_offset) {
        ++old_reused_in_place;
      }
    }
    g = h;
  }

  if (clean_chunks == 0) {
    outcome.reason = "binding delta dirties every chunk";
    return false;
  }

  // Layouts decide the flat -> line mapping of EVERY event (a container
  // growing shifts the placed base of all later ones), so the fused
  // state can only be resumed — and its line-derived tallies only stay
  // valid — when no changed symbol reaches any container's geometry.
  bool layout_clean = true;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    for (const auto& extent : descriptor.shape) {
      if (symbolic::depends_on_any(extent, changed)) layout_clean = false;
    }
    for (const auto& stride : descriptor.strides) {
      if (symbolic::depends_on_any(stride, changed)) layout_clean = false;
    }
    if (symbolic::depends_on_any(descriptor.start_offset, changed)) {
      layout_clean = false;
    }
    if (!layout_clean) break;
  }

  // Patch phase: place containers under the new binding, keep clean
  // chunks, re-simulate dirty chunks at their absolute slices. When
  // every clean chunk keeps its exact offsets — the common slider case:
  // appended, truncated, or overwritten-in-place chunks only — the
  // front buffer is patched IN PLACE and clean events are never even
  // copied. Only offset-shifting deltas (a chunk growing mid-trace) pay
  // for splicing into the back buffer.
  arena.scratch_header.containers.clear();
  arena.scratch_header.layouts.clear();
  arena.scratch_header.events.clear();
  arena.scratch_header.executions = 0;
  place_containers(sdfg, symbols, arena.scratch_header);

  const std::size_t n_new = static_cast<std::size_t>(plan_new.total_events);
  bool in_place = true;
  for (std::size_t idx = 0; idx < plan_new.chunks.size(); ++idx) {
    const TraceChunk& nc = plan_new.chunks[idx];
    if (matches[idx].clean &&
        (matches[idx].old_event_offset != nc.event_offset ||
         matches[idx].old_execution_offset != nc.execution_offset)) {
      in_place = false;
      break;
    }
  }
  // Both patch shapes write disjoint absolute slices (and the splice
  // only reads the checkpoint columns), so the per-chunk work fans out
  // over the pool; chunk outputs are position-determined, keeping the
  // patched trace bit-identical at any thread count.
  if (in_place) {
    arena.trace.events.resize(n_new);  // Preserves the clean prefix.
    par::parallel_for(
        plan_new.chunks.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            if (matches[idx].clean) continue;
            simulate_chunk(sdfg, symbols, options, arena.scratch_header,
                           plan_new.chunks[idx], arena.trace.events,
                           /*absolute=*/true);
          }
        });
  } else {
    arena.back_events.resize(n_new);
    par::parallel_for(
        plan_new.chunks.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            const TraceChunk& nc = plan_new.chunks[idx];
            if (matches[idx].clean) {
              arena.back_events.assign_range(
                  arena.trace.events,
                  static_cast<std::size_t>(matches[idx].old_event_offset),
                  static_cast<std::size_t>(nc.event_offset),
                  static_cast<std::size_t>(nc.event_count),
                  nc.execution_offset - matches[idx].old_execution_offset);
            } else {
              simulate_chunk(sdfg, symbols, options, arena.scratch_header, nc,
                             arena.back_events, /*absolute=*/true);
            }
          }
        });
    // The patched back buffer becomes the checkpoint trace (the old
    // front buffer is kept as a future patch target).
    std::swap(arena.trace.events, arena.back_events);
  }

  arena.trace.containers = std::move(arena.scratch_header.containers);
  arena.trace.layouts = std::move(arena.scratch_header.layouts);
  arena.trace.executions = plan_new.total_executions;
  // plan_new / plan_old alias scratch_plan / ckpt_plan, so capture every
  // count needed below BEFORE the swap promotes the new plan to
  // checkpoint.
  const std::size_t old_chunk_count = plan_old.chunks.size();
  const std::size_t new_chunk_count = plan_new.chunks.size();
  std::swap(arena.ckpt_plan, arena.scratch_plan);
  arena.ckpt_binding = symbols;
  const double patch_ms = ms_since(start);
  const auto metric_start = Clock::now();

  // Metric phase. Append-only steps — every old chunk reused at its old
  // offsets, trace only grew, layouts untouched — RESUME the carried
  // engine state and feed just the new suffix; anything else re-begins
  // the engine and feeds the patched trace from event 0 (still skipping
  // the simulator for clean chunks, which is where the bulk of a cold
  // step goes).
  merge::Engine& engine = arena.engine;
  const bool resumed =
      layout_clean && old_reused_in_place == old_chunk_count &&
      static_cast<std::int64_t>(n_new) >= n_old &&
      engine.events() == static_cast<std::size_t>(n_old);
  if (!resumed) engine.begin(config, arena.trace);
  feed_events(engine, arena.trace.events, engine.events());
  result = engine.snapshot(arena.trace.executions);

  outcome.path = DeltaOutcome::Path::kChunkDelta;
  outcome.reason = "";
  outcome.resumed = resumed;
  outcome.chunks_total = static_cast<std::int64_t>(new_chunk_count);
  outcome.chunks_clean = clean_chunks;
  outcome.chunks_dirty = outcome.chunks_total - clean_chunks;
  timings = {patch_ms, ms_since(metric_start), engine.partitions()};
  return true;
}

}  // namespace

PipelineResult MetricPipeline::run_delta(const Sdfg& sdfg,
                                         std::uint64_t program_version,
                                         const SymbolMap& symbols,
                                         const SimulationOptions& options,
                                         DeltaOutcome* outcome_out) {
  ArenaState& arena = *arena_;
  DeltaOutcome outcome;
  PipelineResult counted;
  // A counts-only step that still simulates reports why the counter
  // declined instead of the delta engine's own reason.
  const char* declined =
      try_closed_form(config_, sdfg, symbols, counted, timings_);
  if (!declined) {
    // Nothing was simulated, so there is no trace to checkpoint.
    arena.ckpt_valid = false;
    outcome.path = DeltaOutcome::Path::kClosedForm;
    if (outcome_out) *outcome_out = outcome;
    return counted;
  }
  outcome.reason = "no checkpoint";

  if (arena.ckpt_valid) {
    if (arena.ckpt_program != program_version) {
      outcome.reason = "program changed";
    } else {
      bool warm = false;
      PipelineResult result;
      try {
        warm = delta_step(config_, arena, sdfg, symbols, options, outcome,
                          result, timings_);
      } catch (...) {
        // A failed splice leaves the checkpoint inconsistent; drop it and
        // let the cold path below surface the canonical error behavior.
        arena.ckpt_valid = false;
        outcome.reason = "delta step failed";
      }
      if (warm) {
        if (*declined && outcome.path == DeltaOutcome::Path::kChunkDelta) {
          outcome.reason = declined;
        }
        if (outcome_out) *outcome_out = outcome;
        return result;
      }
    }
  }

  // Cold path: simulate and feed the whole trace, then arm the
  // checkpoint on the engine state that leaves behind.
  outcome.path = DeltaOutcome::Path::kCold;
  if (*declined) outcome.reason = declined;
  arena.ckpt_valid = false;
  generate(sdfg, symbols, options);
  const auto snapshot_start = Clock::now();
  PipelineResult result = arena.engine.snapshot(arena.trace.executions);
  timings_.metrics_ms += ms_since(snapshot_start);

  const std::size_t n = arena.trace.events.size();
  plan_trace_into(sdfg, symbols, kDeltaMaxChunks, arena.ckpt_plan);
  if (arena.ckpt_plan.parallelizable &&
      arena.ckpt_plan.total_events == static_cast<std::int64_t>(n) &&
      arena.ckpt_plan.total_executions == arena.trace.executions) {
    arena.ckpt_valid = true;
    arena.ckpt_program = program_version;
    arena.ckpt_binding = symbols;
  }
  if (outcome_out) *outcome_out = outcome;
  return result;
}

std::size_t MetricPipeline::event_storage_bytes() const {
  return arena_->trace.events.capacity_bytes();
}

}  // namespace dmv::sim
