#pragma once

// Reference access trace: the oracle sim::simulate is compared against.
//
// A direct reading of the SDFG execution model (Ben-Nun et al., "Stateful
// Dataflow Multigraphs"): states run in order and each scope's nodes in
// topological order; a map runs its scope once per iteration point, in
// lexicographic order, with the point's parameters added to a copy of
// the enclosing scope's SymbolMap (dimension d's bounds are evaluated
// with the parameters of dimensions >= d erased, so an inner range may
// read an outer parameter); a tasklet reads every in-memlet subset, then
// writes every out-memlet subset (a WCR output is one write per element,
// as the paper counts it); an access->access copy pairs source and
// destination elements one by one. Containers are placed by
// place_containers. Bounds and subsets are evaluated with Expr::evaluate
// and walked row-major. No compilation, lane batching or chunking.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/ir/graph.hpp"
#include "dmv/ir/sdfg.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim::reference {

// Row-major element tuples of `subset` under `env`.
inline std::vector<layout::Index> subset_elements(
    const ir::Subset& subset, const symbolic::SymbolMap& env) {
  std::vector<layout::Index> elements{layout::Index{}};
  for (const ir::Range& range : subset.ranges) {
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    std::vector<layout::Index> next;
    for (const layout::Index& prefix : elements) {
      for (std::int64_t v = begin; v <= end; v += step) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    elements = std::move(next);
  }
  return elements;
}

struct Walk {
  AccessTrace trace;
  std::int64_t execution = 0;

  void emit(const std::string& data, const layout::Index& element,
            bool is_write, ir::NodeId tasklet) {
    const int container = trace.container_id(data);
    const ConcreteLayout& layout = trace.layouts[container];
    if (!layout.in_bounds(element)) {
      throw std::out_of_range("reference: access out of bounds on " + data);
    }
    trace.events.push_back(
        {container, layout.flat_index(element), is_write, execution, tasklet});
  }

  // Dimension `dim` of a map: its bounds are evaluated with the
  // parameters of dimensions >= dim erased, then each value is bound in
  // order; past the last dimension the map's scope runs.
  void map_dim(const ir::State& state, const ir::StateSchedule& schedule,
               const ir::Node& entry, std::size_t dim,
               symbolic::SymbolMap& env) {
    const ir::MapInfo& info = entry.map;
    if (dim == info.params.size()) {
      scope(state, schedule, entry.id, env);
      return;
    }
    for (std::size_t d = dim; d < info.params.size(); ++d) {
      env.erase(info.params[d]);
    }
    const ir::Range& range = info.ranges[dim];
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    if (step <= 0) throw std::invalid_argument("reference: non-positive step");
    for (std::int64_t v = begin; v <= end; v += step) {
      env[info.params[dim]] = v;
      map_dim(state, schedule, entry, dim + 1, env);
    }
  }

  void scope(const ir::State& state, const ir::StateSchedule& schedule,
             ir::NodeId parent, const symbolic::SymbolMap& env) {
    for (const ir::NodeId id : schedule.order) {
      const ir::Node& node = state.node(id);
      if (node.scope_parent != parent) continue;
      if (node.kind == ir::NodeKind::MapEntry) {
        if (node.map.params.size() != node.map.ranges.size()) {
          throw std::invalid_argument("reference: malformed map");
        }
        symbolic::SymbolMap inner = env;
        map_dim(state, schedule, node, 0, inner);
      } else if (node.kind == ir::NodeKind::Tasklet) {
        for (const bool is_write : {false, true}) {
          for (const ir::Edge* edge : is_write ? schedule.out_adjacency[id]
                                               : schedule.in_adjacency[id]) {
            const ir::Memlet& memlet = edge->memlet;
            if (memlet.is_empty()) continue;
            for (const layout::Index& element :
                 subset_elements(memlet.subset, env)) {
              emit(memlet.data, element, is_write, id);
            }
          }
        }
        ++execution;
      } else if (node.kind == ir::NodeKind::Access) {
        for (const ir::Edge* edge : schedule.out_adjacency[id]) {
          const ir::Memlet& memlet = edge->memlet;
          const ir::Node& dst = state.node(edge->dst);
          if (memlet.is_empty() || dst.kind != ir::NodeKind::Access) continue;
          const auto sources = subset_elements(memlet.subset, env);
          const auto destinations = subset_elements(
              memlet.other_subset.ranges.empty() ? memlet.subset
                                                 : memlet.other_subset,
              env);
          if (sources.size() != destinations.size()) {
            throw std::logic_error("reference: copy size mismatch");
          }
          for (std::size_t i = 0; i < sources.size(); ++i) {
            emit(memlet.data, sources[i], false, ir::kNoNode);
            emit(dst.data, destinations[i], true, ir::kNoNode);
            ++execution;
          }
        }
      }
    }
  }
};

inline AccessTrace reference_trace(const ir::Sdfg& sdfg,
                                   const symbolic::SymbolMap& symbols) {
  Walk walk;
  place_containers(sdfg, symbols, walk.trace);
  for (const ir::State& state : sdfg.states()) {
    walk.scope(state, ir::StateSchedule(state), ir::kNoNode, symbols);
  }
  walk.trace.executions = walk.execution;
  return std::move(walk.trace);
}

}  // namespace dmv::sim::reference
