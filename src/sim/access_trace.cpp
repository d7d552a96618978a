#include <algorithm>
#include <array>
#include <stdexcept>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/symbolic/batched.hpp"
#include "dmv/symbolic/compiled.hpp"

namespace dmv::sim {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Subset;
using symbolic::BatchedCompiledExpr;
using symbolic::CompiledExpr;
using symbolic::LaneEnv;
using symbolic::SymbolTable;

// Container placement shared by the serial simulator and the parallel
// drivers (which place once up front and hand the layouts to every
// chunk). Iterates sdfg.arrays() — an ordered map — so the container
// index assignment is deterministic.
void place_containers_into(const Sdfg& sdfg, const SymbolMap& symbols,
                           AccessTrace& trace,
                           std::map<std::string, int>* ids) {
  layout::AddressSpace space;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    ConcreteLayout layout = ConcreteLayout::from(descriptor, symbols);
    space.place(layout);
    if (ids) ids->emplace(name, static_cast<int>(trace.layouts.size()));
    trace.containers.push_back(name);
    trace.layouts.push_back(std::move(layout));
  }
}

class Simulator {
 public:
  Simulator(const Sdfg& sdfg, const SymbolMap& symbols,
            const SimulationOptions& options)
      : sdfg_(sdfg), symbols_(symbols), options_(options) {}

  void run_into(AccessTrace& trace) {
    // Reuse the caller's buffers: clear() keeps the event columns'
    // capacity, so a sweep pays the event allocation once.
    trace.containers.clear();
    trace.layouts.clear();
    trace.events.clear();
    trace.executions = 0;
    trace_ = &trace;
    place_containers_into(sdfg_, symbols_, trace, &container_ids_);
    layouts_ = &trace.layouts;
    for (const State& state : sdfg_.states()) {
      // Topo order + adjacency built once per state (in_edges/out_edges
      // scan all edges, which would be paid per tasklet per iteration).
      schedule_ = ir::StateSchedule(state);
      compile_state(state);
      execute_scope(state, ir::kNoNode);
    }
    trace.executions = execution_;
  }

  /// Generates exactly one plan chunk, starting mid-iteration-space at
  /// the plan's absolute event position and execution id. `header` supplies
  /// the placed layouts; events go to `out` — written at their absolute
  /// slice indices when `absolute` (the pre-sized disjoint-slice path),
  /// appended otherwise (streaming chunk buffers, test validation).
  void run_chunk(const AccessTrace& header, const TraceChunk& chunk,
                 EventList& out, bool absolute) {
    layouts_ = &header.layouts;
    container_ids_.clear();
    for (std::size_t i = 0; i < header.containers.size(); ++i) {
      container_ids_.emplace(header.containers[i], static_cast<int>(i));
    }
    const State& state =
        sdfg_.states().at(static_cast<std::size_t>(chunk.state));
    schedule_ = ir::StateSchedule(state);
    position_ = chunk.event_offset;
    execution_ = chunk.execution_offset;
    out_ = &out;
    out_absolute_ = absolute;
    chunk_limit_ = chunk.event_offset + chunk.event_count;
    const Node& node = state.node(chunk.node);
    compile_state(state);
    switch (node.kind) {
      case NodeKind::MapEntry:
        execute_map(state, node, chunk.outer_begin, chunk.outer_count);
        break;
      case NodeKind::Tasklet:
        execute_tasklet(state, node);
        break;
      case NodeKind::Access:
        execute_copies(state, node);
        break;
      case NodeKind::MapExit:
        break;
    }
    if (position_ != chunk.event_offset + chunk.event_count ||
        execution_ != chunk.execution_offset + chunk.execution_count) {
      throw std::logic_error(
          "simulate: trace plan chunk count mismatch (planner bug)");
    }
  }

 private:
  // -- Execution engine ----------------------------------------------
  //
  // All map bounds and memlet subsets of a state are flattened ONCE to
  // CompiledExpr over a single slot table; iteration then runs against a
  // flat int64 environment with no SymbolMap copies and no per-element
  // allocation. The traversal is the SDFG's scope walk: tasklets in
  // schedule order, memlets in-edges first, elements row-major
  // (tests/reference_trace.hpp spells it out over SymbolMaps).

  struct CompiledRange {
    CompiledExpr begin, end, step;
  };
  struct CompiledSubset {
    std::vector<CompiledRange> ranges;
    int container = -1;
  };
  struct CompiledEdge {
    CompiledSubset subset;
    CompiledSubset other;  ///< other_subset; used by copy edges.
    bool has_other = false;
  };
  struct CompiledMap {
    std::vector<int> param_slots;
    std::vector<CompiledRange> bounds;
  };

  // -- Lane-batched innermost loops ----------------------------------
  //
  // For a map whose scope is pure tasklets, the innermost loop advances
  // `lane_width_` iteration points per step: every subset-bound
  // expression that reads the innermost parameter is evaluated for all
  // W lanes in one batched pass (symbolic/batched.hpp), expressions
  // invariant in that parameter are evaluated once per loop entry, and
  // the lanes are then drained in serial order through the ordinary
  // emit path — so the event stream is bit-identical to the scalar
  // loop. Expressions are deduplicated by interned node, which collapses
  // e.g. every "k" bound of a stencil's memlets into one batched
  // evaluation. Batches where any active lane would throw are replayed
  // through the scalar engine so the exception (and every event before
  // it) lands exactly where serial order puts it.

  /// Where a subset bound's value lives during the drain: lane-varying
  /// results sit in `lane_out_` (index * W + lane), invariants in
  /// `invariant_vals_` (index).
  struct BatchedRef {
    std::int32_t index = 0;
    bool varying = false;
  };
  struct BatchedRangeRef {
    BatchedRef begin, end, step;
  };
  /// One memlet of one tasklet, in emission order.
  struct BatchedRun {
    int container = -1;
    bool is_write = false;
    std::vector<BatchedRangeRef> ranges;
  };
  struct BatchedTasklet {
    NodeId id = ir::kNoNode;
    std::vector<BatchedRun> runs;
  };
  struct BatchedScope {
    bool enabled = false;
    int lane_slot = -1;  ///< Innermost map parameter's slot.
    std::vector<BatchedCompiledExpr> varying;
    std::vector<CompiledExpr> invariant;
    std::vector<BatchedTasklet> tasklets;
  };

  /// Analyzes `node`'s scope for lane batching; leaves the scope
  /// disabled (scalar fallback) on any construct the drain cannot
  /// reproduce exactly: nested maps, access-node copies, or an empty
  /// iteration signature.
  void build_batched_scope(const State& state, const Node& node) {
    const CompiledMap& map = compiled_maps_[node.id];
    if (map.bounds.empty()) return;
    BatchedScope& scope = batched_scopes_[node.id];
    for (NodeId id : schedule_.order) {
      const Node& child = state.node(id);
      if (child.scope_parent != node.id) continue;
      if (child.kind == NodeKind::MapExit) continue;
      if (child.kind != NodeKind::Tasklet) return;
    }
    const int lane_slot = map.param_slots.back();
    // Dedup by interned node: one evaluation per distinct expression,
    // shared by every memlet bound that names it.
    std::unordered_map<const symbolic::ExprNode*, BatchedRef> seen;
    auto ref_of = [&](const symbolic::Expr& expr) {
      const symbolic::ExprNode* key = &expr.node();
      auto it = seen.find(key);
      if (it != seen.end()) return it->second;
      CompiledExpr compiled = CompiledExpr::compile(expr, table_);
      BatchedRef ref;
      if (compiled.reads_any({lane_slot})) {
        ref.varying = true;
        ref.index = static_cast<std::int32_t>(scope.varying.size());
        scope.varying.emplace_back(std::move(compiled));
      } else {
        ref.varying = false;
        ref.index = static_cast<std::int32_t>(scope.invariant.size());
        scope.invariant.push_back(std::move(compiled));
      }
      seen.emplace(key, ref);
      return ref;
    };
    auto add_run = [&](BatchedTasklet& tasklet, const Edge* edge,
                       bool is_write) {
      BatchedRun run;
      run.container = container_ids_.at(edge->memlet.data);
      run.is_write = is_write;
      run.ranges.reserve(edge->memlet.subset.ranges.size());
      for (const ir::Range& range : edge->memlet.subset.ranges) {
        run.ranges.push_back(
            {ref_of(range.begin), ref_of(range.end), ref_of(range.step)});
      }
      tasklet.runs.push_back(std::move(run));
    };
    // Tasklets in schedule order, each memlet in execute_tasklet
    // order (in-edges then out-edges, empty memlets skipped) — the drain
    // replays this list verbatim.
    for (NodeId id : schedule_.order) {
      const Node& child = state.node(id);
      if (child.scope_parent != node.id ||
          child.kind != NodeKind::Tasklet) {
        continue;
      }
      BatchedTasklet tasklet;
      tasklet.id = id;
      for (const Edge* edge : schedule_.in_adjacency[id]) {
        if (edge->memlet.is_empty()) continue;
        add_run(tasklet, edge, /*is_write=*/false);
      }
      for (const Edge* edge : schedule_.out_adjacency[id]) {
        if (edge->memlet.is_empty()) continue;
        add_run(tasklet, edge, /*is_write=*/true);
      }
      scope.tasklets.push_back(std::move(tasklet));
    }
    scope.lane_slot = lane_slot;
    scope.enabled = true;
  }

  CompiledRange compile_range(const ir::Range& range) {
    CompiledRange compiled;
    compiled.begin = CompiledExpr::compile(range.begin, table_);
    compiled.end = CompiledExpr::compile(range.end, table_);
    compiled.step = CompiledExpr::compile(range.step, table_);
    return compiled;
  }

  CompiledSubset compile_subset(const Subset& subset,
                                const std::string& data) {
    CompiledSubset compiled;
    compiled.ranges.reserve(subset.ranges.size());
    for (const ir::Range& range : subset.ranges) {
      compiled.ranges.push_back(compile_range(range));
    }
    compiled.container = container_ids_.at(data);
    return compiled;
  }

  void compile_state(const State& state) {
    table_ = SymbolTable();
    compiled_maps_.assign(state.num_nodes(), {});
    compiled_edges_.assign(state.edges().size(), {});
    for (const Node& node : state.nodes()) {
      if (node.kind != NodeKind::MapEntry) continue;
      CompiledMap& map = compiled_maps_[node.id];
      map.param_slots.reserve(node.map.params.size());
      for (const std::string& param : node.map.params) {
        map.param_slots.push_back(table_.intern(param));
      }
      map.bounds.reserve(node.map.ranges.size());
      for (const ir::Range& range : node.map.ranges) {
        map.bounds.push_back(compile_range(range));
      }
    }
    for (std::size_t e = 0; e < state.edges().size(); ++e) {
      const Edge& edge = state.edges()[e];
      if (edge.memlet.is_empty()) continue;
      CompiledEdge& compiled = compiled_edges_[e];
      compiled.subset = compile_subset(edge.memlet.subset, edge.memlet.data);
      const Node& dst = state.node(edge.dst);
      if (!edge.memlet.other_subset.ranges.empty() &&
          dst.kind == NodeKind::Access) {
        compiled.other =
            compile_subset(edge.memlet.other_subset, dst.data);
        compiled.has_other = true;
      }
    }
    lane_width_ = std::clamp(options_.lane_width, 1, symbolic::kMaxLaneWidth);
    batched_scopes_.assign(state.num_nodes(), {});
    if (lane_width_ > 1) {
      for (const Node& node : state.nodes()) {
        if (node.kind != NodeKind::MapEntry) continue;
        build_batched_scope(state, node);
      }
    }
    table_.bind(symbols_, env_values_, env_bound_);
  }

  std::size_t edge_index(const State& state, const Edge* edge) const {
    return static_cast<std::size_t>(edge - state.edges().data());
  }

  std::int64_t eval(const CompiledExpr& expr) {
    return expr.evaluate(env_values_.data(), env_bound_.data(),
                         &table_.names());
  }

  void execute_scope(const State& state, NodeId scope) {
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry:
          execute_map(state, node);
          break;
        case NodeKind::Tasklet:
          execute_tasklet(state, node);
          break;
        case NodeKind::Access:
          execute_copies(state, node);
          break;
        case NodeKind::MapExit:
          break;  // Writes are emitted at the producing tasklet.
      }
    }
  }

  /// `outer_count` < 0 runs the full map; otherwise only the outermost
  /// dimension's ordinals [outer_begin, outer_begin + outer_count) run —
  /// the chunked writers' mid-iteration-space entry. The full run over
  /// ordinal slices partitioning [0, trips) visits the identical point
  /// sequence, which is what makes chunked output bit-identical.
  void execute_map(const State& state, const Node& node,
                            std::int64_t outer_begin = 0,
                            std::int64_t outer_count = -1) {
    const CompiledMap& map = compiled_maps_[node.id];
    // Save the parameter slots' outer bindings: a nested map may reuse a
    // parameter name, and the outer value must survive the inner scope
    // (one flat environment stands in for a binding per scope).
    std::vector<std::pair<std::int64_t, char>> saved;
    saved.reserve(map.param_slots.size());
    for (int slot : map.param_slots) {
      saved.emplace_back(env_values_[slot], env_bound_[slot]);
    }
    if (outer_count < 0) {
      iterate_map(state, node, map, 0);
    } else if (map.bounds.empty()) {
      // Zero-dimensional map: the planner models it as one outer ordinal.
      if (outer_begin == 0 && outer_count > 0) {
        execute_scope(state, node.id);
      }
    } else {
      for (std::size_t q = 0; q < map.param_slots.size(); ++q) {
        env_bound_[map.param_slots[q]] = 0;
      }
      const std::int64_t begin = eval(map.bounds[0].begin);
      const std::int64_t step = eval(map.bounds[0].step);
      if (step <= 0) {
        throw std::invalid_argument("simulate: non-positive step in map '" +
                                    node.map.label + "'");
      }
      const int slot = map.param_slots[0];
      const BatchedScope& scope = batched_scopes_[node.id];
      if (map.bounds.size() == 1 && scope.enabled) {
        // A 1-D chunk's outer-ordinal slice IS an innermost slice.
        execute_innermost_batched(state, node, scope,
                                  begin + outer_begin * step, outer_count,
                                  step);
      } else {
        for (std::int64_t o = outer_begin; o < outer_begin + outer_count;
             ++o) {
          env_values_[slot] = begin + o * step;
          env_bound_[slot] = 1;
          iterate_map(state, node, map, 1);
        }
      }
    }
    for (std::size_t p = 0; p < map.param_slots.size(); ++p) {
      env_values_[map.param_slots[p]] = saved[p].first;
      env_bound_[map.param_slots[p]] = saved[p].second;
    }
  }

  void iterate_map(const State& state, const Node& node,
                            const CompiledMap& map, std::size_t dim) {
    if (dim == map.bounds.size()) {
      execute_scope(state, node.id);
      return;
    }
    // This and inner parameters are out of scope while evaluating this
    // dimension's bounds: only outer parameters are bound here.
    for (std::size_t q = dim; q < map.param_slots.size(); ++q) {
      env_bound_[map.param_slots[q]] = 0;
    }
    const std::int64_t begin = eval(map.bounds[dim].begin);
    const std::int64_t end = eval(map.bounds[dim].end);
    const std::int64_t step = eval(map.bounds[dim].step);
    if (step <= 0) {
      throw std::invalid_argument("simulate: non-positive step in map '" +
                                  node.map.label + "'");
    }
    const int slot = map.param_slots[dim];
    const BatchedScope& scope = batched_scopes_[node.id];
    if (dim + 1 == map.bounds.size() && scope.enabled) {
      const std::int64_t trips =
          end >= begin ? (end - begin) / step + 1 : 0;
      execute_innermost_batched(state, node, scope, begin, trips, step);
      return;
    }
    for (std::int64_t v = begin; v <= end; v += step) {
      env_values_[slot] = v;
      env_bound_[slot] = 1;
      iterate_map(state, node, map, dim + 1);
    }
  }

  /// The scalar innermost loop over `count` points starting at `first`:
  /// the replay target when a batch would throw, and the exact loop the
  /// batched path must match byte for byte.
  void run_innermost_scalar(const State& state, const Node& node, int slot,
                            std::int64_t first, std::int64_t count,
                            std::int64_t step) {
    for (std::int64_t i = 0; i < count; ++i) {
      env_values_[slot] = first + i * step;
      env_bound_[slot] = 1;
      execute_scope(state, node.id);
    }
  }

  /// Runs `count` innermost iteration points (values first, first+step,
  /// ...) of a batchable scope, `lane_width_` lanes at a time. Bounds
  /// invariant in the lane parameter are evaluated once per entry (the
  /// scalar loop recomputes them per point against an identical
  /// environment, so the values — and any exception — are the same);
  /// lane-varying bounds are evaluated W lanes per dispatch; events then
  /// drain lane by lane through emit(), preserving serial order. The
  /// tail batch pads inactive lanes with the last active point's value —
  /// never out of the loop's domain — and ignores their faults.
  void execute_innermost_batched(const State& state, const Node& node,
                                 const BatchedScope& scope,
                                 std::int64_t begin, std::int64_t count,
                                 std::int64_t step) {
    if (count <= 0) return;
    const int W = lane_width_;
    const int slot = scope.lane_slot;
    invariant_vals_.resize(scope.invariant.size());
    try {
      for (std::size_t e = 0; e < scope.invariant.size(); ++e) {
        invariant_vals_[e] = eval(scope.invariant[e]);
      }
    } catch (...) {
      // An invariant bound throws on every point; the scalar loop
      // throws it at the first point, after zero events.
      run_innermost_scalar(state, node, slot, begin, count, step);
      return;
    }
    lane_env_.reset(env_values_, env_bound_, W);
    lane_out_.resize(scope.varying.size() * static_cast<std::size_t>(W));
    lane_param_.resize(static_cast<std::size_t>(W));
    for (std::int64_t base = 0; base < count; base += W) {
      const int active =
          static_cast<int>(std::min<std::int64_t>(W, count - base));
      for (int l = 0; l < W; ++l) {
        const std::int64_t o =
            base + std::min<std::int64_t>(l, active - 1);
        lane_param_[static_cast<std::size_t>(l)] = begin + o * step;
      }
      lane_env_.set_lanes(slot, lane_param_);
      std::uint32_t faults = 0;
      for (std::size_t e = 0; e < scope.varying.size(); ++e) {
        faults |= scope.varying[e].evaluate(
            lane_env_, lane_out_.data() + e * static_cast<std::size_t>(W));
      }
      const std::uint32_t active_mask =
          active >= 32 ? 0xffffffffu
                       : ((std::uint32_t{1} << active) - 1u);
      if ((faults & active_mask) != 0) {
        // Some active lane would throw: replay the batch scalar so the
        // exception fires at the exact point — after the exact events —
        // serial order produces.
        run_innermost_scalar(state, node, slot, begin + base * step, active,
                             step);
        continue;
      }
      for (int l = 0; l < active; ++l) {
        drain_lane(scope, l, W);
      }
    }
    // Leave the parameter as the scalar loop does: bound to the last
    // point (re-unbound by the next bounds evaluation anyway).
    env_values_[slot] = begin + (count - 1) * step;
    env_bound_[slot] = 1;
  }

  /// Emits one lane's events: every tasklet's memlet runs in order,
  /// bounds read from the batched results, elements walked by the same
  /// odometer as enumerate_subset.
  void drain_lane(const BatchedScope& scope, int lane, int width) {
    for (const BatchedTasklet& tasklet : scope.tasklets) {
      for (const BatchedRun& run : tasklet.runs) {
        auto& bounds = bounds_scratch_;
        bounds.clear();
        for (const BatchedRangeRef& range : run.ranges) {
          bounds.push_back({lane_value(range.begin, lane, width),
                            lane_value(range.end, lane, width),
                            lane_value(range.step, lane, width)});
        }
        layout::Index& cursor = cursor_scratch_;
        cursor.assign(bounds.size(), 0);
        for (std::size_t d = 0; d < bounds.size(); ++d) {
          cursor[d] = bounds[d][0];
        }
        if (bounds.empty()) {
          emit(run.container, cursor, run.is_write, tasklet.id);
          continue;
        }
        for (;;) {
          emit(run.container, cursor, run.is_write, tasklet.id);
          int d = static_cast<int>(bounds.size()) - 1;
          for (; d >= 0; --d) {
            cursor[d] += bounds[d][2];
            if (cursor[d] <= bounds[d][1]) break;
            cursor[d] = bounds[d][0];
          }
          if (d < 0) break;
        }
      }
      ++execution_;
    }
  }

  std::int64_t lane_value(const BatchedRef& ref, int lane, int width) const {
    return ref.varying
               ? lane_out_[static_cast<std::size_t>(ref.index) * width + lane]
               : invariant_vals_[static_cast<std::size_t>(ref.index)];
  }

  // Evaluates a compiled subset's bounds into scratch and emits every
  // element in row-major order, without allocating.
  template <typename PerElement>
  void enumerate_subset(const CompiledSubset& subset, PerElement&& emit_at) {
    auto& bounds = bounds_scratch_;
    bounds.clear();
    for (const CompiledRange& range : subset.ranges) {
      bounds.push_back(
          {eval(range.begin), eval(range.end), eval(range.step)});
    }
    layout::Index& cursor = cursor_scratch_;
    cursor.assign(bounds.size(), 0);
    for (std::size_t d = 0; d < bounds.size(); ++d) cursor[d] = bounds[d][0];
    if (bounds.empty()) {
      emit_at(cursor);
      return;
    }
    for (;;) {
      emit_at(cursor);
      int d = static_cast<int>(bounds.size()) - 1;
      for (; d >= 0; --d) {
        cursor[d] += bounds[d][2];
        if (cursor[d] <= bounds[d][1]) break;
        cursor[d] = bounds[d][0];
      }
      if (d < 0) break;
    }
  }

  void emit_subset(const State& state, const Edge* edge,
                            bool is_write, NodeId tasklet) {
    const CompiledEdge& compiled =
        compiled_edges_[edge_index(state, edge)];
    const int container = compiled.subset.container;
    enumerate_subset(compiled.subset, [&](const layout::Index& element) {
      emit(container, element, is_write, tasklet);
    });
  }

  void execute_tasklet(const State& state, const Node& node) {
    for (const Edge* edge : schedule_.in_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      emit_subset(state, edge, /*is_write=*/false, node.id);
    }
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      emit_subset(state, edge, /*is_write=*/true, node.id);
    }
    ++execution_;
  }

  void execute_copies(const State& state, const Node& node) {
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      const Node& dst = state.node(edge->dst);
      if (dst.kind != NodeKind::Access) continue;
      const CompiledEdge& compiled =
          compiled_edges_[edge_index(state, edge)];
      const CompiledSubset& src_subset = compiled.subset;
      const CompiledSubset& dst_subset =
          compiled.has_other ? compiled.other : compiled.subset;
      const int dst_container = compiled.has_other
                                    ? compiled.other.container
                                    : container_ids_.at(dst.data);
      // Enumerate both sides (copies are rare and top-level; the
      // simplicity of materializing them beats a dual odometer).
      std::vector<layout::Index> sources;
      enumerate_subset(src_subset, [&](const layout::Index& element) {
        sources.push_back(element);
      });
      std::vector<layout::Index> destinations;
      enumerate_subset(dst_subset, [&](const layout::Index& element) {
        destinations.push_back(element);
      });
      if (sources.size() != destinations.size()) {
        throw std::logic_error("simulate: copy subset size mismatch on '" +
                               edge->memlet.data + "'");
      }
      for (std::size_t i = 0; i < sources.size(); ++i) {
        emit(src_subset.container, sources[i], /*is_write=*/false,
             ir::kNoNode);
        emit(dst_container, destinations[i], /*is_write=*/true, ir::kNoNode);
        ++execution_;
      }
    }
  }

  // -- Shared infrastructure -----------------------------------------

  void emit(int container, const layout::Index& indices, bool is_write,
            NodeId tasklet) {
    const ConcreteLayout& layout = (*layouts_)[container];
    if (!layout.in_bounds(indices)) {
      std::string text;
      for (std::int64_t i : indices) text += std::to_string(i) + ",";
      throw OutOfBoundsAccessError("simulate: access out of bounds on '" +
                                   layout.name + "' at [" + text + "]");
    }
    AccessEvent event;
    event.container = container;
    event.flat = layout.flat_index(indices);
    event.is_write = is_write;
    event.execution = execution_;
    event.tasklet = tasklet;
    const std::int64_t position = position_++;
    if (out_) {
      // Chunk mode: the plan fixed this chunk's event range up front, so
      // emitting past it means the planner under-counted — fail loudly
      // instead of corrupting a neighboring slice.
      if (position >= chunk_limit_) {
        throw std::logic_error(
            "simulate: trace plan chunk overflow (planner bug)");
      }
      if (out_absolute_) {
        out_->set(static_cast<std::size_t>(position), event);
      } else {
        out_->push_back(event);
      }
    } else {
      trace_->events.push_back(event);
    }
  }

  const Sdfg& sdfg_;
  const SymbolMap& symbols_;
  const SimulationOptions& options_;
  AccessTrace* trace_ = nullptr;
  /// Placed layouts events resolve against: the owned trace's layouts in
  /// a full run, the shared header's in chunk mode.
  const std::vector<ConcreteLayout>* layouts_ = nullptr;
  /// Chunk mode only: target list, write discipline, and the absolute
  /// event index one past the chunk's slice.
  EventList* out_ = nullptr;
  bool out_absolute_ = false;
  std::int64_t chunk_limit_ = 0;
  std::map<std::string, int> container_ids_;
  ir::StateSchedule schedule_;
  SymbolTable table_;
  std::vector<std::int64_t> env_values_;
  std::vector<char> env_bound_;
  std::vector<CompiledMap> compiled_maps_;
  std::vector<CompiledEdge> compiled_edges_;
  /// Lane batching (indexed by node id; disabled entries fall back to
  /// the scalar loop). Scratch buffers are reused across loop entries.
  std::vector<BatchedScope> batched_scopes_;
  LaneEnv lane_env_;
  std::vector<std::int64_t> lane_out_;        ///< [varying index * W + lane].
  std::vector<std::int64_t> invariant_vals_;  ///< [invariant index].
  std::vector<std::int64_t> lane_param_;      ///< W point values, scratch.
  int lane_width_ = 1;
  std::vector<std::array<std::int64_t, 3>> bounds_scratch_;
  layout::Index cursor_scratch_;
  std::int64_t position_ = 0;  ///< Stream index of the next event.
  std::int64_t execution_ = 0;
};

}  // namespace

int AccessTrace::container_id(const std::string& name) const {
  for (std::size_t i = 0; i < containers.size(); ++i) {
    if (containers[i] == name) return static_cast<int>(i);
  }
  throw std::out_of_range("AccessTrace: unknown container '" + name + "'");
}

const ConcreteLayout& AccessTrace::layout_of(const std::string& name) const {
  return layouts[container_id(name)];
}

namespace {

// Below this many total events, per-chunk setup (state schedule +
// compilation per chunk) outweighs the parallel win.
constexpr std::int64_t kMinParallelEvents = 8192;

// Chunked generation is worth attempting at all: more than one thread
// would run it, and we are not already inside a pool task (where
// parallel constructs serialize and the plan is pure overhead).
bool chunking_possible() {
  return par::num_threads() > 1 && !par::in_parallel_region();
}

bool plan_is_worthwhile(const TracePlan& plan) {
  return plan.parallelizable && plan.chunks.size() > 1 &&
         plan.total_events >= kMinParallelEvents;
}

}  // namespace

AccessTrace simulate(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options) {
  AccessTrace trace;
  simulate_into(sdfg, symbols, options, trace);
  return trace;
}

void simulate_into(const Sdfg& sdfg, const SymbolMap& symbols,
                   const SimulationOptions& options, AccessTrace& trace,
                   TraceArena* arena) {
  if (chunking_possible()) {
    TracePlan local_plan;
    TracePlan& plan = arena ? arena->plan : local_plan;
    plan_trace_into(sdfg, symbols, 0, plan);
    if (plan_is_worthwhile(plan)) {
      trace.containers.clear();
      trace.layouts.clear();
      trace.executions = 0;
      place_containers_into(sdfg, symbols, trace, nullptr);
      // Size the columns once from the plan total; every chunk then
      // writes only its disjoint [event_offset, event_offset +
      // event_count) slice, so no writer ever moves another's memory.
      // The list is resized as is; clearing it first would make
      // resize() zero-fill every column.
      trace.events.resize(static_cast<std::size_t>(plan.total_events));
      par::parallel_for(plan.chunks.size(), 1,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t c = begin; c < end; ++c) {
                            Simulator chunk_sim(sdfg, symbols, options);
                            chunk_sim.run_chunk(trace, plan.chunks[c],
                                                trace.events,
                                                /*absolute=*/true);
                          }
                        });
      trace.executions = plan.total_executions;
      return;
    }
  }
  Simulator(sdfg, symbols, options).run_into(trace);
}

void simulate_chunk(const Sdfg& sdfg, const SymbolMap& symbols,
                    const SimulationOptions& options,
                    const AccessTrace& header, const TraceChunk& chunk,
                    EventList& out, bool absolute) {
  Simulator chunk_sim(sdfg, symbols, options);
  chunk_sim.run_chunk(header, chunk, out, absolute);
}

void place_containers(const Sdfg& sdfg, const SymbolMap& symbols,
                      AccessTrace& trace) {
  place_containers_into(sdfg, symbols, trace, nullptr);
}

}  // namespace dmv::sim
