#include "dmv/sim/trace_plan.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "dmv/par/par.hpp"
#include "dmv/symbolic/expr.hpp"

namespace dmv::sim {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Subset;

// Splitting a map finer than this many events per chunk buys no wall
// time but pays per-chunk setup (state compilation, env binding).
constexpr std::int64_t kMinChunkEvents = 4096;

/// Internal: any condition the planner cannot model exactly. Callers of
/// plan_trace never see it — the plan just comes back non-parallelizable
/// and the serial engine reproduces the exact behavior (including where
/// an error, if any, surfaces).
struct PlanFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Counts {
  std::int64_t events = 0;
  std::int64_t executions = 0;
  Counts& operator+=(const Counts& other) {
    events += other.events;
    executions += other.executions;
    return *this;
  }
};

class Planner {
 public:
  Planner(const Sdfg& sdfg, const SymbolMap& symbols)
      : sdfg_(sdfg), symbols_(symbols) {}

  void build(int max_chunks, TracePlan& plan) {
    const auto& states = sdfg_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      const State& state = states[s];
      schedule_ = ir::StateSchedule(state);
      for (NodeId id : schedule_.order) {
        const Node& node = state.node(id);
        if (node.scope_parent != ir::kNoNode) continue;
        switch (node.kind) {
          case NodeKind::MapEntry:
            plan_map(static_cast<int>(s), state, node, max_chunks, plan);
            break;
          case NodeKind::Tasklet:
          case NodeKind::Access:
            add_chunk(static_cast<int>(s), id, 0, 1,
                      node_counts(state, node, symbols_, {}).value(), plan);
            break;
          case NodeKind::MapExit:
            break;
        }
      }
    }
  }

 private:
  void add_chunk(int state_index, NodeId node, std::int64_t outer_begin,
                 std::int64_t outer_count, const Counts& counts,
                 TracePlan& plan) {
    if (counts.events == 0 && counts.executions == 0) return;
    TraceChunk chunk;
    chunk.state = state_index;
    chunk.node = node;
    chunk.outer_begin = outer_begin;
    chunk.outer_count = outer_count;
    chunk.event_offset = plan.total_events;
    chunk.event_count = counts.events;
    chunk.execution_offset = plan.total_executions;
    chunk.execution_count = counts.executions;
    plan.chunks.push_back(chunk);
    plan.total_events += counts.events;
    plan.total_executions += counts.executions;
  }

  // -- Chunk partitioning of one top-level map ------------------------

  void plan_map(int state_index, const State& state, const Node& node,
                int max_chunks, TracePlan& plan) {
    SymbolMap env = symbols_;
    if (node.map.ranges.empty()) {
      // A zero-dimensional map runs its body once; one chunk covering
      // the single synthetic outer ordinal.
      add_chunk(state_index, node.id, 0, 1, map_counts(state, node, 0, env),
                plan);
      return;
    }
    const Dimension outer = dimension(node.map, 0, env);
    const std::int64_t n0 = outer.trips;
    if (n0 == 0) return;  // Zero-trip map: nothing emitted.

    // Per-outer-ordinal counts: one analytic product when the remaining
    // extents are invariant in the map's own parameters, otherwise
    // map_counts per ordinal (triangular/tiled inner bounds).
    const std::optional<Counts> uniform =
        product_counts(state, node, 1, env, {node.map.params[0]});
    std::vector<Counts> per;
    if (!uniform) {
      per.resize(static_cast<std::size_t>(n0));
      bind_each(env, node.map.params[0], outer, [&](std::int64_t o) {
        per[static_cast<std::size_t>(o)] = map_counts(state, node, 1, env);
      });
    }
    auto at = [&](std::int64_t o) -> const Counts& {
      return uniform ? *uniform : per[static_cast<std::size_t>(o)];
    };
    std::int64_t map_events = 0;
    for (std::int64_t o = 0; o < n0; ++o) map_events += at(o).events;
    const std::int64_t goal = std::max(1, max_chunks);
    const std::int64_t target =
        std::max((map_events + goal - 1) / goal, kMinChunkEvents);
    std::int64_t chunk_begin = 0;
    Counts acc;
    for (std::int64_t o = 0; o < n0; ++o) {
      acc += at(o);
      if (acc.events >= target || o + 1 == n0) {
        add_chunk(state_index, node.id, chunk_begin, o + 1 - chunk_begin, acc,
                  plan);
        chunk_begin = o + 1;
        acc = Counts{};
      }
    }
  }

  // -- Counting -------------------------------------------------------
  //
  // Every count is exact. One scope walk serves two purposes: with
  // `unbound` holding the enclosing maps' still-unbound parameters it is
  // the analytic attempt, which succeeds when no count depends on them
  // (a range whose bounds read them counts from extent = end - begin,
  // which SIMPLIFIES the parameters away for the ubiquitous
  // A[i, j:j+2]-style subsets even though begin/end depend on them); with
  // `unbound` empty every enclosing parameter is bound, no count comes
  // back empty (a failure throws), and map_counts enumerates whatever
  // dimension the analytic product cannot count.

  /// Trip count of one range; nullopt when the step or the extent
  /// depends on `unbound` or reads a symbol env lacks. With `unbound`
  /// empty (the enumeration's leaf) the bounds are evaluated as the
  /// simulator evaluates them, and a symbol env lacks fails the plan.
  /// Otherwise bounds free of `unbound` count from their values, others
  /// from the simplified extent end - begin. A non-positive step gives
  /// nullopt for a map dimension, whose points the enumeration may never
  /// reach, and fails the plan for a memlet subset.
  static std::optional<std::int64_t> extent_trips(
      const ir::Range& range, const SymbolMap& env,
      const std::set<std::string>& unbound, bool is_subset) {
    std::optional<std::int64_t> begin;
    std::optional<std::int64_t> end;
    std::optional<std::int64_t> step;
    if (unbound.empty()) {
      begin = range.begin.evaluate(env);
      end = range.end.evaluate(env);
      step = range.step.evaluate(env);
    } else {
      if (symbolic::depends_on_any(range.step, unbound)) return std::nullopt;
      if (!symbolic::depends_on_any(range.begin, unbound) &&
          !symbolic::depends_on_any(range.end, unbound)) {
        begin = range.begin.try_evaluate(env);
        end = range.end.try_evaluate(env);
      }
      if (!begin || !end) {
        const symbolic::Expr extent =
            symbolic::simplified(range.end - range.begin);
        if (symbolic::depends_on_any(extent, unbound)) return std::nullopt;
        begin = 0;
        end = extent.try_evaluate(env);
      }
      step = range.step.try_evaluate(env);
      if (!end || !step) return std::nullopt;
    }
    if (*step <= 0) {
      if (is_subset) throw PlanFailure("non-positive subset step");
      return std::nullopt;
    }
    return symbolic::range_trips(*begin, *end, *step);
  }

  /// Elements the simulator's odometer visits: it emits at least once
  /// per dimension (a degenerate dimension contributes its begin value),
  /// and an empty range list is one scalar element, hence max(1, trips)
  /// per dimension.
  static std::optional<std::int64_t> subset_count(
      const Subset& subset, const SymbolMap& env,
      const std::set<std::string>& unbound) {
    std::int64_t n = 1;
    for (const ir::Range& range : subset.ranges) {
      const auto t = extent_trips(range, env, unbound, /*is_subset=*/true);
      if (!t) return std::nullopt;
      n *= std::max<std::int64_t>(1, *t);
    }
    return n;
  }

  /// Events and executions of one tasklet, or of one access node's
  /// copies, per execution of its scope.
  std::optional<Counts> node_counts(const State& state, const Node& node,
                                    const SymbolMap& env,
                                    const std::set<std::string>& unbound)
      const {
    Counts counts;
    if (node.kind == NodeKind::Tasklet) {
      for (const auto* edges : {&schedule_.in_adjacency[node.id],
                                &schedule_.out_adjacency[node.id]}) {
        for (const Edge* edge : *edges) {
          if (edge->memlet.is_empty()) continue;
          const auto n = subset_count(edge->memlet.subset, env, unbound);
          if (!n) return std::nullopt;
          counts.events += *n;
        }
      }
      counts.executions = 1;
      return counts;
    }
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      if (state.node(edge->dst).kind != NodeKind::Access) continue;
      const Subset& dst_subset = edge->memlet.other_subset.ranges.empty()
                                     ? edge->memlet.subset
                                     : edge->memlet.other_subset;
      const auto n_src = subset_count(edge->memlet.subset, env, unbound);
      const auto n_dst = subset_count(dst_subset, env, unbound);
      if (!n_src || !n_dst) return std::nullopt;
      if (*n_src != *n_dst) throw PlanFailure("copy subset size mismatch");
      counts.events += 2 * *n_src;
      counts.executions += *n_src;
    }
    return counts;
  }

  /// Counts of one execution of `scope`'s body. A nested map is an
  /// analytic product while `unbound` is non-empty, and goes through
  /// map_counts once every enclosing parameter is bound.
  std::optional<Counts> body_counts(const State& state, NodeId scope,
                                    SymbolMap& env,
                                    const std::set<std::string>& unbound)
      const {
    Counts total;
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope || node.kind == NodeKind::MapExit) {
        continue;
      }
      std::optional<Counts> counts;
      if (node.kind != NodeKind::MapEntry) {
        counts = node_counts(state, node, env, unbound);
      } else if (unbound.empty()) {
        counts = map_counts(state, node, 0, env);
      } else {
        counts = product_counts(state, node, 0, env, unbound);
      }
      if (!counts) return std::nullopt;
      total += *counts;
    }
    return total;
  }

  /// The analytic product of dimensions [dim, n) of `node`'s map and its
  /// body, with those dimensions' parameters added to `unbound`.
  std::optional<Counts> product_counts(const State& state, const Node& node,
                                       std::size_t dim, SymbolMap& env,
                                       std::set<std::string> unbound) const {
    const ir::MapInfo& map = node.map;
    unbound.insert(map.params.begin() + static_cast<std::ptrdiff_t>(dim),
                   map.params.end());
    std::int64_t product = 1;
    for (std::size_t d = dim; d < map.ranges.size(); ++d) {
      const auto t = extent_trips(map.ranges[d], env, unbound,
                                  /*is_subset=*/false);
      if (!t) return std::nullopt;
      product *= *t;
    }
    const std::optional<Counts> body =
        body_counts(state, node.id, env, unbound);
    if (!body) return std::nullopt;
    return Counts{product * body->events, product * body->executions};
  }

  /// Counts of dimensions [dim, n) of `node`'s map and its body, with
  /// dimensions [0, dim) and every enclosing parameter bound in env: the
  /// analytic product where the extents allow it, otherwise dimension
  /// `dim` bound value by value. At dim == n this counts the body.
  Counts map_counts(const State& state, const Node& node, std::size_t dim,
                    SymbolMap& env) const {
    if (dim == node.map.ranges.size()) {
      return body_counts(state, node.id, env, {}).value();
    }
    if (const std::optional<Counts> product =
            product_counts(state, node, dim, env, {})) {
      return *product;
    }
    Counts total;
    bind_each(env, node.map.params[dim], dimension(node.map, dim, env),
              [&](std::int64_t) {
                total += map_counts(state, node, dim + 1, env);
              });
    return total;
  }

  struct Dimension {
    std::int64_t begin, step, trips;
  };

  /// Dimension `dim` of `map` evaluated for enumeration. Its bounds may
  /// read enclosing parameters and dimensions [0, dim), which env binds;
  /// its own or an inner parameter would be unbound in the simulator
  /// too, so the serial engine is left to surface that.
  static Dimension dimension(const ir::MapInfo& map, std::size_t dim,
                             const SymbolMap& env) {
    const ir::Range& range = map.ranges[dim];
    const std::set<std::string> own(
        map.params.begin() + static_cast<std::ptrdiff_t>(dim),
        map.params.end());
    if (symbolic::depends_on_any(range.begin, own) ||
        symbolic::depends_on_any(range.end, own) ||
        symbolic::depends_on_any(range.step, own)) {
      throw PlanFailure("bounds reference own or inner map parameters");
    }
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    if (step <= 0) throw PlanFailure("non-positive map step");
    return {begin, step, symbolic::range_trips(begin, end, step)};
  }

  /// Binds `param` to each value of `dimension` in turn and calls
  /// body(ordinal), then restores the binding `param` shadowed: a nested
  /// map may reuse an enclosing parameter's or a symbol's name.
  template <typename Body>
  static void bind_each(SymbolMap& env, const std::string& param,
                        const Dimension& dimension, Body&& body) {
    std::optional<std::int64_t> previous;
    if (const auto it = env.find(param); it != env.end()) previous = it->second;
    for (std::int64_t o = 0; o < dimension.trips; ++o) {
      env[param] = symbolic::wrapping_add(
          dimension.begin, symbolic::wrapping_mul(o, dimension.step));
      body(o);
    }
    if (previous) {
      env[param] = *previous;
    } else {
      env.erase(param);
    }
  }

  const Sdfg& sdfg_;
  const SymbolMap& symbols_;
  ir::StateSchedule schedule_;
};

}  // namespace

void plan_trace_into(const Sdfg& sdfg, const SymbolMap& symbols,
                     int max_chunks_per_map, TracePlan& plan) {
  plan.parallelizable = false;
  plan.total_events = 0;
  plan.total_executions = 0;
  plan.chunks.clear();
  int max_chunks = max_chunks_per_map > 0 ? max_chunks_per_map
                                          : par::num_threads() * 4;
  if (max_chunks < 1) max_chunks = 1;
  try {
    Planner(sdfg, symbols).build(max_chunks, plan);
    plan.parallelizable = true;
  } catch (...) {
    // Not exactly modelable (unbound symbol, non-positive step, size
    // mismatch, overflow, ...): serial generation reproduces the exact
    // behavior, including where the error — if any — surfaces.
    plan.total_events = 0;
    plan.total_executions = 0;
    plan.chunks.clear();
  }
}

TracePlan plan_trace(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& /*options*/,
                     int max_chunks_per_map) {
  TracePlan plan;
  plan_trace_into(sdfg, symbols, max_chunks_per_map, plan);
  return plan;
}

namespace {

/// Dependency set of one top-level node's scope (see the header for the
/// inclusion rules). A top-level map's outermost dimension is the plan's
/// chunking axis, so its END bound is excluded.
std::set<std::string> scope_dependencies(const Sdfg& sdfg, const State& state,
                                         NodeId top) {
  std::set<std::string> reached;
  auto visit = [&reached](const symbolic::Expr& e) {
    e.collect_free_symbols(reached);
  };
  auto visit_ranges = [&visit](const std::vector<ir::Range>& ranges,
                               bool chunked) {
    for (const ir::Range& range : ranges) {
      visit(range.begin);
      if (!chunked || &range != &ranges.front()) visit(range.end);
      visit(range.step);
    }
  };
  // Scope membership: a node is in the scope when `top` is on its
  // scope_parent chain (or is the node itself).
  auto in_scope = [&state, top](NodeId id) {
    for (NodeId current = id; current != ir::kNoNode;
         current = state.node(current).scope_parent) {
      if (current == top) return true;
    }
    return false;
  };
  std::set<std::string> containers;
  for (const Node& node : state.nodes()) {
    if (node.kind == NodeKind::MapEntry && in_scope(node.id)) {
      visit_ranges(node.map.ranges, node.id == top);
    }
  }
  for (const Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    if (!in_scope(edge.src) && !in_scope(edge.dst)) continue;
    // Only event-GENERATING memlets matter: tasklet reads/writes and
    // access-to-access copies. Map-boundary routing memlets (whose
    // subsets typically span the whole container, e.g. 0:K-1) never
    // emit events — including them would pull the slider symbol into
    // every chunk's dependency set and forfeit the clean-chunk reuse
    // that the fixed-capacity pattern is designed to enable.
    const Node& src = state.node(edge.src);
    const Node& dst = state.node(edge.dst);
    const bool tasklet_edge = src.kind == NodeKind::Tasklet ||
                              dst.kind == NodeKind::Tasklet;
    const bool copy_edge =
        src.kind == NodeKind::Access && dst.kind == NodeKind::Access;
    if (!tasklet_edge && !copy_edge) continue;
    visit_ranges(edge.memlet.subset.ranges, false);
    visit_ranges(edge.memlet.other_subset.ranges, false);
    containers.insert(edge.memlet.data);
    if (dst.kind == NodeKind::Access && !dst.data.empty()) {
      containers.insert(dst.data);
    }
  }
  // Strides and start offsets determine every event's flat index; SHAPE
  // does not (for an in-bounds program it only sizes the placed buffer,
  // which is the metric layer's layout concern, handled separately by
  // the delta engine's layout-clean check). Leaving shape out is what
  // keeps a fixed-capacity slider workload — extents bound by a capacity
  // symbol, the slider only in loop ranges — fully clean.
  for (const std::string& name : containers) {
    const ir::DataDescriptor& descriptor = sdfg.array(name);
    for (const symbolic::Expr& stride : descriptor.strides) visit(stride);
    visit(descriptor.start_offset);
  }
  // Map parameters and other locally-bound names are not tunable; only
  // declared program symbols can appear in a binding delta.
  std::set<std::string> result;
  for (const std::string& symbol : sdfg.symbols()) {
    if (reached.contains(symbol)) result.insert(symbol);
  }
  return result;
}

}  // namespace

std::vector<std::set<std::string>> chunk_dependencies(const Sdfg& sdfg,
                                                      const TracePlan& plan) {
  std::vector<std::set<std::string>> deps;
  deps.reserve(plan.chunks.size());
  // Chunks of the same (state, node) share one set; cache by key.
  std::map<std::pair<int, NodeId>, std::set<std::string>> cache;
  for (const TraceChunk& chunk : plan.chunks) {
    const std::pair<int, NodeId> key{chunk.state, chunk.node};
    auto it = cache.find(key);
    if (it == cache.end()) {
      const State& state =
          sdfg.states().at(static_cast<std::size_t>(chunk.state));
      it = cache.emplace(key, scope_dependencies(sdfg, state, chunk.node))
               .first;
    }
    deps.push_back(it->second);
  }
  return deps;
}

}  // namespace dmv::sim
