#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
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
    place_containers(sdfg_, symbols_, trace);
    use_layouts(trace);
    out_ = &trace.events;
    out_absolute_ = false;
    chunk_limit_ = std::numeric_limits<std::int64_t>::max();
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
    use_layouts(header);
    const State& state =
        sdfg_.states().at(static_cast<std::size_t>(chunk.state));
    schedule_ = ir::StateSchedule(state);
    position_ = chunk.event_offset;
    execution_ = chunk.execution_offset;
    out_ = &out;
    out_absolute_ = absolute;
    chunk_limit_ = chunk.event_offset + chunk.event_count;
    compile_state(state);
    execute_node(state, state.node(chunk.node), chunk.outer_begin,
                 chunk.outer_count);
    if (position_ != chunk.event_offset + chunk.event_count ||
        execution_ != chunk.execution_offset + chunk.execution_count) {
      throw std::logic_error(
          "simulate: trace plan chunk count mismatch (planner bug)");
    }
  }

 private:
  /// Resolves events against `header`'s placed containers, by name.
  void use_layouts(const AccessTrace& header) {
    layouts_ = &header.layouts;
    container_ids_.clear();
    for (std::size_t i = 0; i < header.containers.size(); ++i) {
      container_ids_.emplace(header.containers[i], static_cast<int>(i));
    }
  }

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
  /// One event-generating subset: a tasklet's read or write, or one side
  /// of a copy.
  struct CompiledSubset {
    const Subset* source = nullptr;  ///< Its expressions (lane analysis).
    std::vector<CompiledRange> ranges;
    int container = -1;
    bool is_write = false;
  };
  struct CompiledCopy {
    CompiledSubset from, to;
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
  /// One tasklet's bound references, index-aligned with its memlets_.
  struct BatchedTasklet {
    NodeId id = ir::kNoNode;
    std::vector<std::vector<BatchedRangeRef>> memlets;
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
      ref.varying = compiled.reads_any({lane_slot});
      if (ref.varying) {
        ref.index = static_cast<std::int32_t>(scope.varying.size());
        scope.varying.emplace_back(std::move(compiled));
      } else {
        ref.index = static_cast<std::int32_t>(scope.invariant.size());
        scope.invariant.push_back(std::move(compiled));
      }
      seen.emplace(key, ref);
      return ref;
    };
    // Tasklets in schedule order, each with its memlets in emission
    // order — the drain replays this list verbatim.
    for (NodeId id : schedule_.order) {
      const Node& child = state.node(id);
      if (child.scope_parent != node.id || child.kind == NodeKind::MapExit) {
        continue;
      }
      if (child.kind != NodeKind::Tasklet) {
        scope = BatchedScope{};
        return;
      }
      BatchedTasklet& tasklet = scope.tasklets.emplace_back();
      tasklet.id = id;
      for (const CompiledSubset& memlet : memlets_[id]) {
        std::vector<BatchedRangeRef>& refs = tasklet.memlets.emplace_back();
        for (const ir::Range& range : memlet.source->ranges) {
          refs.push_back(
              {ref_of(range.begin), ref_of(range.end), ref_of(range.step)});
        }
      }
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

  CompiledSubset compile_subset(const Subset& subset, const std::string& data,
                                bool is_write) {
    CompiledSubset compiled;
    compiled.source = &subset;
    compiled.ranges.reserve(subset.ranges.size());
    for (const ir::Range& range : subset.ranges) {
      compiled.ranges.push_back(compile_range(range));
    }
    compiled.container = container_ids_.at(data);
    compiled.is_write = is_write;
    return compiled;
  }

  void compile_state(const State& state) {
    table_ = SymbolTable();
    compiled_maps_.assign(state.num_nodes(), {});
    memlets_.assign(state.num_nodes(), {});
    copies_.assign(state.num_nodes(), {});
    // Every non-empty memlet names a placed container, routing memlets
    // included: an unknown one fails here, before the state emits.
    for (const Edge& edge : state.edges()) {
      if (!edge.memlet.is_empty()) container_ids_.at(edge.memlet.data);
    }
    for (const Node& node : state.nodes()) {
      if (node.kind == NodeKind::MapEntry) {
        CompiledMap& map = compiled_maps_[node.id];
        for (const std::string& param : node.map.params) {
          map.param_slots.push_back(table_.intern(param));
        }
        for (const ir::Range& range : node.map.ranges) {
          map.bounds.push_back(compile_range(range));
        }
      } else if (node.kind == NodeKind::Tasklet) {
        // Emission order: in-edges (reads), then out-edges (writes).
        for (const bool is_write : {false, true}) {
          for (const Edge* edge : is_write ? schedule_.out_adjacency[node.id]
                                           : schedule_.in_adjacency[node.id]) {
            if (edge->memlet.is_empty()) continue;
            memlets_[node.id].push_back(compile_subset(
                edge->memlet.subset, edge->memlet.data, is_write));
          }
        }
      } else if (node.kind == NodeKind::Access) {
        for (const Edge* edge : schedule_.out_adjacency[node.id]) {
          const Node& dst = state.node(edge->dst);
          if (edge->memlet.is_empty() || dst.kind != NodeKind::Access) {
            continue;
          }
          const Subset& to = edge->memlet.other_subset.ranges.empty()
                                 ? edge->memlet.subset
                                 : edge->memlet.other_subset;
          copies_[node.id].push_back(
              {compile_subset(edge->memlet.subset, edge->memlet.data, false),
               compile_subset(to, dst.data, true)});
        }
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

  std::int64_t eval(const CompiledExpr& expr) {
    return expr.evaluate(env_values_.data(), env_bound_.data(),
                         &table_.names());
  }

  void execute_scope(const State& state, NodeId scope) {
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent == scope) execute_node(state, node);
    }
  }

  /// Runs one node of a scope; `first` and `count` slice a map (see
  /// execute_map).
  void execute_node(const State& state, const Node& node,
                    std::int64_t first = 0, std::int64_t count = -1) {
    switch (node.kind) {
      case NodeKind::MapEntry:
        execute_map(state, node, first, count);
        break;
      case NodeKind::Tasklet:
        execute_tasklet(node.id);
        break;
      case NodeKind::Access:
        execute_copies(node.id);
        break;
      case NodeKind::MapExit:
        break;  // Writes are emitted at the producing tasklet.
    }
  }

  /// Runs `node`'s map in full, or only the outermost dimension's
  /// ordinals [first, first + count) when `count` >= 0 — the chunked
  /// writers' mid-iteration-space entry.
  void execute_map(const State& state, const Node& node,
                   std::int64_t first = 0, std::int64_t count = -1) {
    const CompiledMap& map = compiled_maps_[node.id];
    // Save the parameter slots' outer bindings: a nested map may reuse a
    // parameter name, and the outer value must survive the inner scope
    // (one flat environment stands in for a binding per scope).
    std::vector<std::pair<std::int64_t, char>> saved;
    saved.reserve(map.param_slots.size());
    for (int slot : map.param_slots) {
      saved.emplace_back(env_values_[slot], env_bound_[slot]);
    }
    iterate_map(state, node, map, 0, first, count);
    for (std::size_t p = 0; p < map.param_slots.size(); ++p) {
      env_values_[map.param_slots[p]] = saved[p].first;
      env_bound_[map.param_slots[p]] = saved[p].second;
    }
  }

  /// Runs dimensions [dim, n) of the map, then its scope per point.
  /// Dimension `dim` runs in full when `count` < 0; otherwise only its
  /// ordinals [first, first + count), which the plan fixed, so its end
  /// bound is not read. Ordinal slices partitioning [0, trips) visit the
  /// full run's points in the same order, which is what makes chunked
  /// output bit-identical.
  void iterate_map(const State& state, const Node& node,
                   const CompiledMap& map, std::size_t dim,
                   std::int64_t first = 0, std::int64_t count = -1) {
    if (dim == map.bounds.size()) {
      execute_scope(state, node.id);
      return;
    }
    // This and inner parameters are out of scope while evaluating this
    // dimension's bounds: only outer parameters are bound here.
    for (std::size_t q = dim; q < map.param_slots.size(); ++q) {
      env_bound_[map.param_slots[q]] = 0;
    }
    const CompiledRange& range = map.bounds[dim];
    const std::int64_t begin = eval(range.begin);
    const std::int64_t end = count < 0 ? eval(range.end) : 0;
    const std::int64_t step = eval(range.step);
    if (step <= 0) {
      throw std::invalid_argument("simulate: non-positive step in map '" +
                                  node.map.label + "'");
    }
    if (count < 0) count = symbolic::range_trips(begin, end, step);
    const std::int64_t start = point(begin, first, step);
    if (dim + 1 == map.bounds.size() && batched_scopes_[node.id].enabled) {
      execute_innermost_batched(state, node, start, count, step);
    } else {
      run_points(state, node, map, dim, start, count, step);
    }
  }

  /// The ordinal-th value from `start`: within a range's trips it lies
  /// between begin and end, though ordinal * step may pass INT64_MAX.
  static std::int64_t point(std::int64_t start, std::int64_t ordinal,
                            std::int64_t step) {
    return symbolic::wrapping_add(start, symbolic::wrapping_mul(ordinal, step));
  }

  /// The scalar loop over `count` points of dimension `dim` from
  /// `start`: every dimension's loop, and the replay target when a lane
  /// batch would throw.
  void run_points(const State& state, const Node& node,
                  const CompiledMap& map, std::size_t dim,
                  std::int64_t start, std::int64_t count, std::int64_t step) {
    const int slot = map.param_slots[dim];
    for (std::int64_t i = 0; i < count; ++i) {
      env_values_[slot] = point(start, i, step);
      env_bound_[slot] = 1;
      iterate_map(state, node, map, dim + 1);
    }
  }

  /// Runs `count` innermost iteration points (values begin, begin+step,
  /// ...) of a batchable scope, `lane_width_` lanes at a time. Bounds
  /// invariant in the lane parameter are evaluated once per entry (the
  /// scalar loop recomputes them per point against an identical
  /// environment, so the values — and any exception — are the same);
  /// lane-varying bounds are evaluated W lanes per dispatch; events then
  /// drain lane by lane through emit(), preserving serial order. The
  /// tail batch pads inactive lanes with the last active point's value —
  /// never out of the loop's domain — and ignores their faults.
  void execute_innermost_batched(const State& state, const Node& node,
                                 std::int64_t begin, std::int64_t count,
                                 std::int64_t step) {
    if (count <= 0) return;
    const CompiledMap& map = compiled_maps_[node.id];
    const std::size_t dim = map.bounds.size() - 1;
    const BatchedScope& scope = batched_scopes_[node.id];
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
      run_points(state, node, map, dim, begin, count, step);
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
        lane_param_[static_cast<std::size_t>(l)] = point(begin, o, step);
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
        run_points(state, node, map, dim, point(begin, base, step), active,
                   step);
        continue;
      }
      for (int l = 0; l < active; ++l) {
        drain_lane(scope, l, W);
      }
    }
    // Leave the parameter as the scalar loop does: bound to the last
    // point (re-unbound by the next bounds evaluation anyway).
    env_values_[slot] = point(begin, count - 1, step);
    env_bound_[slot] = 1;
  }

  /// Emits one lane's events: every tasklet's memlets in order, bounds
  /// read from the batched results.
  void drain_lane(const BatchedScope& scope, int lane, int width) {
    for (const BatchedTasklet& tasklet : scope.tasklets) {
      const std::vector<CompiledSubset>& memlets = memlets_[tasklet.id];
      for (std::size_t m = 0; m < memlets.size(); ++m) {
        bounds_scratch_.clear();
        for (const BatchedRangeRef& range : tasklet.memlets[m]) {
          bounds_scratch_.push_back({lane_value(range.begin, lane, width),
                                     lane_value(range.end, lane, width),
                                     lane_value(range.step, lane, width)});
        }
        const CompiledSubset& memlet = memlets[m];
        walk_bounds([&](const layout::Index& element) {
          emit(memlet.container, element, memlet.is_write, tasklet.id);
        });
      }
      ++execution_;
    }
  }

  std::int64_t lane_value(const BatchedRef& ref, int lane, int width) const {
    return ref.varying
               ? lane_out_[static_cast<std::size_t>(ref.index) * width + lane]
               : invariant_vals_[static_cast<std::size_t>(ref.index)];
  }

  /// The scalar path's bounds: evaluates `subset`'s ranges into
  /// bounds_scratch_.
  void evaluate_bounds(const CompiledSubset& subset) {
    bounds_scratch_.clear();
    for (const CompiledRange& range : subset.ranges) {
      bounds_scratch_.push_back(
          {eval(range.begin), eval(range.end), eval(range.step)});
    }
  }

  /// The odometer: calls at(element) for every element of the box in
  /// bounds_scratch_, row-major, without allocating. A dimension whose
  /// end precedes its begin still yields its begin, and an empty box is
  /// one scalar element.
  template <typename PerElement>
  void walk_bounds(PerElement&& at) {
    const auto& bounds = bounds_scratch_;
    layout::Index& cursor = cursor_scratch_;
    cursor.resize(bounds.size());
    for (std::size_t d = 0; d < bounds.size(); ++d) cursor[d] = bounds[d][0];
    for (;;) {
      at(cursor);
      int d = static_cast<int>(bounds.size()) - 1;
      for (; d >= 0; --d) {
        cursor[d] += bounds[d][2];
        if (cursor[d] <= bounds[d][1]) break;
        cursor[d] = bounds[d][0];
      }
      if (d < 0) break;
    }
  }

  void execute_tasklet(NodeId id) {
    for (const CompiledSubset& memlet : memlets_[id]) {
      evaluate_bounds(memlet);
      walk_bounds([&](const layout::Index& element) {
        emit(memlet.container, element, memlet.is_write, id);
      });
    }
    ++execution_;
  }

  void execute_copies(NodeId id) {
    // Enumerate both sides (copies are rare and top-level; the
    // simplicity of materializing them beats a dual odometer).
    auto elements = [&](const CompiledSubset& subset) {
      std::vector<layout::Index> out;
      evaluate_bounds(subset);
      walk_bounds([&](const layout::Index& index) { out.push_back(index); });
      return out;
    };
    for (const CompiledCopy& copy : copies_[id]) {
      const std::vector<layout::Index> sources = elements(copy.from);
      const std::vector<layout::Index> destinations = elements(copy.to);
      if (sources.size() != destinations.size()) {
        throw std::logic_error("simulate: copy subset size mismatch on '" +
                               (*layouts_)[copy.from.container].name + "'");
      }
      for (std::size_t i = 0; i < sources.size(); ++i) {
        emit(copy.from.container, sources[i], /*is_write=*/false,
             ir::kNoNode);
        emit(copy.to.container, destinations[i], /*is_write=*/true,
             ir::kNoNode);
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
    // A chunk's plan fixed its event range up front, so emitting past it
    // means the planner under-counted — fail loudly instead of
    // corrupting a neighboring slice. A full run has no limit.
    if (position >= chunk_limit_) {
      throw std::logic_error(
          "simulate: trace plan chunk overflow (planner bug)");
    }
    if (out_absolute_) {
      out_->set(static_cast<std::size_t>(position), event);
    } else {
      out_->push_back(event);
    }
  }

  const Sdfg& sdfg_;
  const SymbolMap& symbols_;
  const SimulationOptions& options_;
  /// Placed layouts events resolve against: the owned trace's layouts in
  /// a full run, the shared header's in chunk mode.
  const std::vector<ConcreteLayout>* layouts_ = nullptr;
  /// Target list, write discipline, and the absolute event index one
  /// past the chunk's slice (a full run appends without a limit).
  EventList* out_ = nullptr;
  bool out_absolute_ = false;
  std::int64_t chunk_limit_ = 0;
  std::map<std::string, int> container_ids_;
  ir::StateSchedule schedule_;
  SymbolTable table_;
  std::vector<std::int64_t> env_values_;
  std::vector<char> env_bound_;
  std::vector<CompiledMap> compiled_maps_;
  /// Per node id: a tasklet's non-empty memlets in emission order, and an
  /// access node's copies.
  std::vector<std::vector<CompiledSubset>> memlets_;
  std::vector<std::vector<CompiledCopy>> copies_;
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
      place_containers(sdfg, symbols, trace);
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

// Iterates sdfg.arrays(), an ordered map, so the container index
// assignment is deterministic: a full run and every chunk writer of a
// parallel run resolve containers to the same indices.
void place_containers(const Sdfg& sdfg, const SymbolMap& symbols,
                      AccessTrace& trace) {
  layout::AddressSpace space;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    ConcreteLayout layout = ConcreteLayout::from(descriptor, symbols);
    space.place(layout);
    trace.containers.push_back(name);
    trace.layouts.push_back(std::move(layout));
  }
}

}  // namespace dmv::sim
