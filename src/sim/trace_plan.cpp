#include "dmv/sim/trace_plan.hpp"

#include <algorithm>
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

std::int64_t range_trips(std::int64_t begin, std::int64_t end,
                         std::int64_t step) {
  return end >= begin ? (end - begin) / step + 1 : 0;
}

// Elements enumerate_subset visits. The simulator's odometer always
// emits at least once per dimension (a degenerate dimension contributes
// its begin value), and an empty range list is one scalar element —
// hence max(1, trips) per dimension, not trips.
std::int64_t subset_size(const Subset& subset, const SymbolMap& env) {
  std::int64_t n = 1;
  for (const ir::Range& range : subset.ranges) {
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    if (step <= 0) throw PlanFailure("non-positive subset step");
    n *= std::max<std::int64_t>(1, range_trips(begin, end, step));
  }
  return n;
}

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
            add_chunk(static_cast<int>(s), id, 0, 1,
                      tasklet_counts(node, symbols_), plan);
            break;
          case NodeKind::Access:
            add_chunk(static_cast<int>(s), id, 0, 1,
                      copy_counts(state, node, symbols_), plan);
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
    const ir::MapInfo& map = node.map;
    SymbolMap env = symbols_;
    if (map.ranges.empty()) {
      // A zero-dimensional map runs its body once; one chunk covering
      // the single synthetic outer ordinal.
      add_chunk(state_index, node.id, 0, 1, scope_counts(state, node.id, env),
                plan);
      return;
    }
    // Outer bounds referencing the map's own parameters would be unbound
    // in the simulator too; punt so the serial engine surfaces it.
    const std::set<std::string> own(map.params.begin(), map.params.end());
    const ir::Range& outer = map.ranges[0];
    if (symbolic::depends_on_any(outer.begin, own) ||
        symbolic::depends_on_any(outer.end, own) ||
        symbolic::depends_on_any(outer.step, own)) {
      throw PlanFailure("outer bounds reference map parameters");
    }
    const std::int64_t begin = outer.begin.evaluate(env);
    const std::int64_t end = outer.end.evaluate(env);
    const std::int64_t step = outer.step.evaluate(env);
    if (step <= 0) throw PlanFailure("non-positive outer step");
    const std::int64_t n0 = range_trips(begin, end, step);
    if (n0 == 0) return;  // Zero-trip map: nothing emitted.

    // Per-outer-ordinal counts: one analytic product when the remaining
    // extents are invariant in the map's own parameters, otherwise an
    // exact enumeration per ordinal (triangular/tiled outer bounds).
    Counts uniform;
    bool is_uniform = false;
    std::vector<Counts> per;
    {
      std::set<std::string> unbound(map.params.begin(), map.params.end());
      if (std::optional<Counts> whole =
              analytic_map_counts(state, node, 0, env, unbound)) {
        // The analytic product is n0 * (inner trips) * (body counts), so
        // the division is exact.
        uniform.events = whole->events / n0;
        uniform.executions = whole->executions / n0;
        is_uniform = true;
      }
    }
    if (!is_uniform) {
      per.resize(static_cast<std::size_t>(n0));
      const std::string& param = map.params[0];
      const auto shadowed = env.find(param);
      const bool had = shadowed != env.end();
      const std::int64_t previous = had ? shadowed->second : 0;
      for (std::int64_t o = 0; o < n0; ++o) {
        env[param] = begin + o * step;
        per[static_cast<std::size_t>(o)] =
            map_counts_from_dim(state, node, 1, env);
      }
      if (had) {
        env[param] = previous;
      } else {
        env.erase(param);
      }
    }
    auto at = [&](std::int64_t o) -> const Counts& {
      return is_uniform ? uniform : per[static_cast<std::size_t>(o)];
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

  // -- Exact counting (enumerating fallback) --------------------------

  Counts tasklet_counts(const Node& node, const SymbolMap& env) const {
    Counts counts;
    for (const Edge* edge : schedule_.in_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      counts.events += subset_size(edge->memlet.subset, env);
    }
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      counts.events += subset_size(edge->memlet.subset, env);
    }
    counts.executions = 1;
    return counts;
  }

  Counts copy_counts(const State& state, const Node& node,
                     const SymbolMap& env) const {
    Counts counts;
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      if (state.node(edge->dst).kind != NodeKind::Access) continue;
      const std::int64_t n_src = subset_size(edge->memlet.subset, env);
      const Subset& dst_subset = edge->memlet.other_subset.ranges.empty()
                                     ? edge->memlet.subset
                                     : edge->memlet.other_subset;
      const std::int64_t n_dst = subset_size(dst_subset, env);
      if (n_src != n_dst) throw PlanFailure("copy subset size mismatch");
      counts.events += 2 * n_src;
      counts.executions += n_src;
    }
    return counts;
  }

  Counts scope_counts(const State& state, NodeId scope, SymbolMap& env) const {
    Counts total;
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry:
          total += map_counts_from_dim(state, node, 0, env);
          break;
        case NodeKind::Tasklet:
          total += tasklet_counts(node, env);
          break;
        case NodeKind::Access:
          total += copy_counts(state, node, env);
          break;
        case NodeKind::MapExit:
          break;
      }
    }
    return total;
  }

  /// Counts of the map with dims [0, dim) already bound in env. Tries
  /// the analytic product for the remaining dims first; otherwise binds
  /// this dim's parameter value by value and recurses.
  Counts map_counts_from_dim(const State& state, const Node& node,
                             std::size_t dim, SymbolMap& env) const {
    const ir::MapInfo& map = node.map;
    if (dim == map.ranges.size()) return scope_counts(state, node.id, env);
    {
      std::set<std::string> unbound(map.params.begin() + dim,
                                    map.params.end());
      if (std::optional<Counts> analytic =
              analytic_map_counts(state, node, dim, env, unbound)) {
        return *analytic;
      }
    }
    const ir::Range& range = map.ranges[dim];
    const std::set<std::string> remaining(map.params.begin() + dim,
                                          map.params.end());
    if (symbolic::depends_on_any(range.begin, remaining) ||
        symbolic::depends_on_any(range.end, remaining) ||
        symbolic::depends_on_any(range.step, remaining)) {
      throw PlanFailure("bounds reference own or inner map parameters");
    }
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    if (step <= 0) throw PlanFailure("non-positive map step");
    Counts total;
    const std::string& param = map.params[dim];
    const auto shadowed = env.find(param);
    const bool had = shadowed != env.end();
    const std::int64_t previous = had ? shadowed->second : 0;
    for (std::int64_t v = begin; v <= end; v += step) {
      env[param] = v;
      total += map_counts_from_dim(state, node, dim + 1, env);
    }
    if (had) {
      env[param] = previous;
    } else {
      env.erase(param);
    }
    return total;
  }

  // -- Analytic counting ----------------------------------------------
  //
  // A count is analytic when it does not depend on the parameters in
  // `unbound` (the enclosing maps' still-unbound parameters): the trip
  // count of [begin : end : step] is derived from extent = end - begin,
  // which SIMPLIFIES the parameters away for the ubiquitous
  // A[i, j:j+2]-style subsets even though begin/end individually depend
  // on them. Everything else falls back to enumeration.

  static std::optional<std::int64_t> analytic_trips(
      const ir::Range& range, const SymbolMap& env,
      const std::set<std::string>& unbound) {
    if (symbolic::depends_on_any(range.step, unbound)) return std::nullopt;
    const symbolic::Expr extent = symbolic::simplified(range.end - range.begin);
    if (symbolic::depends_on_any(extent, unbound)) return std::nullopt;
    const auto e = extent.try_evaluate(env);
    const auto s = range.step.try_evaluate(env);
    if (!e || !s) return std::nullopt;
    if (*s <= 0) return std::nullopt;
    return *e >= 0 ? *e / *s + 1 : 0;
  }

  static std::optional<std::int64_t> analytic_subset_size(
      const Subset& subset, const SymbolMap& env,
      const std::set<std::string>& unbound) {
    std::int64_t n = 1;
    for (const ir::Range& range : subset.ranges) {
      if (symbolic::depends_on_any(range.step, unbound)) return std::nullopt;
      const symbolic::Expr extent =
          symbolic::simplified(range.end - range.begin);
      if (symbolic::depends_on_any(extent, unbound)) return std::nullopt;
      const auto e = extent.try_evaluate(env);
      const auto s = range.step.try_evaluate(env);
      if (!e || !s) return std::nullopt;
      if (*s <= 0) throw PlanFailure("non-positive subset step");
      n *= std::max<std::int64_t>(1, *e >= 0 ? *e / *s + 1 : 0);
    }
    return n;
  }

  std::optional<Counts> analytic_scope_counts(
      const State& state, NodeId scope, const SymbolMap& env,
      const std::set<std::string>& unbound) const {
    Counts total;
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry: {
          std::set<std::string> inner = unbound;
          inner.insert(node.map.params.begin(), node.map.params.end());
          std::optional<Counts> nested =
              analytic_map_counts(state, node, 0, env, inner);
          if (!nested) return std::nullopt;
          total += *nested;
          break;
        }
        case NodeKind::Tasklet: {
          for (const Edge* edge : schedule_.in_adjacency[id]) {
            if (edge->memlet.is_empty()) continue;
            const auto n = analytic_subset_size(edge->memlet.subset, env,
                                                unbound);
            if (!n) return std::nullopt;
            total.events += *n;
          }
          for (const Edge* edge : schedule_.out_adjacency[id]) {
            if (edge->memlet.is_empty()) continue;
            const auto n = analytic_subset_size(edge->memlet.subset, env,
                                                unbound);
            if (!n) return std::nullopt;
            total.events += *n;
          }
          total.executions += 1;
          break;
        }
        case NodeKind::Access: {
          for (const Edge* edge : schedule_.out_adjacency[id]) {
            if (edge->memlet.is_empty()) continue;
            if (state.node(edge->dst).kind != NodeKind::Access) continue;
            const auto n_src = analytic_subset_size(edge->memlet.subset, env,
                                                    unbound);
            const Subset& dst_subset =
                edge->memlet.other_subset.ranges.empty()
                    ? edge->memlet.subset
                    : edge->memlet.other_subset;
            const auto n_dst = analytic_subset_size(dst_subset, env, unbound);
            if (!n_src || !n_dst) return std::nullopt;
            if (*n_src != *n_dst) {
              throw PlanFailure("copy subset size mismatch");
            }
            total.events += 2 * *n_src;
            total.executions += *n_src;
          }
          break;
        }
        case NodeKind::MapExit:
          break;
      }
    }
    return total;
  }

  std::optional<Counts> analytic_map_counts(
      const State& state, const Node& node, std::size_t dim,
      const SymbolMap& env, const std::set<std::string>& unbound) const {
    std::int64_t trips = 1;
    for (std::size_t d = dim; d < node.map.ranges.size(); ++d) {
      const auto t = analytic_trips(node.map.ranges[d], env, unbound);
      if (!t) return std::nullopt;
      trips *= *t;
    }
    const std::optional<Counts> body =
        analytic_scope_counts(state, node.id, env, unbound);
    if (!body) return std::nullopt;
    return Counts{trips * body->events, trips * body->executions};
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
/// inclusion rules). `outer_chunked` marks map nodes whose outermost
/// dimension is the plan's chunking axis (its END bound is excluded).
std::set<std::string> scope_dependencies(const Sdfg& sdfg, const State& state,
                                         NodeId top, bool outer_chunked) {
  std::set<std::string> reached;
  auto visit = [&reached](const symbolic::Expr& e) {
    e.collect_free_symbols(reached);
  };
  auto visit_ranges = [&visit](const std::vector<ir::Range>& ranges) {
    for (const ir::Range& range : ranges) {
      visit(range.begin);
      visit(range.end);
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
    if (!in_scope(node.id)) continue;
    if (node.kind == NodeKind::MapEntry) {
      if (node.id == top && outer_chunked && !node.map.ranges.empty()) {
        const ir::Range& outer = node.map.ranges[0];
        visit(outer.begin);
        visit(outer.step);
        for (std::size_t d = 1; d < node.map.ranges.size(); ++d) {
          visit(node.map.ranges[d].begin);
          visit(node.map.ranges[d].end);
          visit(node.map.ranges[d].step);
        }
      } else {
        visit_ranges(node.map.ranges);
      }
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
    visit_ranges(edge.memlet.subset.ranges);
    visit_ranges(edge.memlet.other_subset.ranges);
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
      const Node& node = state.node(chunk.node);
      const bool outer_chunked = node.kind == NodeKind::MapEntry;
      it = cache
               .emplace(key, scope_dependencies(sdfg, state, chunk.node,
                                                outer_chunked))
               .first;
    }
    deps.push_back(it->second);
  }
  return deps;
}

}  // namespace dmv::sim
