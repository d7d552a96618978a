#include <algorithm>
#include <array>
#include <stdexcept>

#include "dmv/exec/interpreter.hpp"

namespace dmv::exec {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;

// Evaluates a single-element subset to a concrete index tuple.
layout::Index evaluate_point(const ir::Subset& subset, const SymbolMap& env,
                             const std::string& what) {
  layout::Index indices;
  indices.reserve(subset.ranges.size());
  for (const ir::Range& range : subset.ranges) {
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    if (begin != end) {
      throw std::invalid_argument(
          "interpreter: tasklet memlet on '" + what +
          "' must be a single element, got range " + subset.to_string());
    }
    indices.push_back(begin);
  }
  return indices;
}

class Interpreter {
 public:
  Interpreter(const Sdfg& sdfg, const SymbolMap& symbols, Buffers& buffers)
      : sdfg_(sdfg), symbols_(symbols), buffers_(buffers) {}

  void run() {
    for (const ir::State& state : sdfg_.states()) {
      state_ = &state;
      // Topo order + adjacency built once per state (shared with the
      // trace simulator via ir::StateSchedule): the per-iteration
      // tasklet loop must not rescan the whole edge list.
      schedule_ = ir::StateSchedule(state);
      Wires wires;
      execute_scope(ir::kNoNode, symbols_, wires);
    }
  }

 private:
  /// Values traveling on tasklet-to-tasklet scalar edges, keyed by
  /// (producer node, source connector). Scoped to one loop iteration.
  using Wires = std::map<std::pair<NodeId, std::string>, double>;

  void execute_scope(NodeId scope, const SymbolMap& env, Wires& wires) {
    for (NodeId id : schedule_.order) {
      const Node& node = state_->node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry:
          execute_map(node, env);
          break;
        case NodeKind::Tasklet:
          execute_tasklet(node, env, wires);
          break;
        case NodeKind::Access:
          execute_copies(node, env);
          break;
        case NodeKind::MapExit:
          break;
      }
    }
  }

  // Runs the map's scope once per point, outer parameter slowest, with
  // the point's parameters bound in a copy of the enclosing scope's
  // binding.
  void execute_map(const Node& entry, const SymbolMap& env) {
    if (entry.map.params.size() != entry.map.ranges.size()) {
      throw std::invalid_argument("interpreter: malformed map '" +
                                  entry.map.label + "'");
    }
    SymbolMap inner = env;
    iterate_map(entry, 0, inner);
  }

  // Dimension `dim`'s bounds are evaluated after the parameters of
  // dimensions >= dim are erased from `env`, so an inner range may read
  // an outer parameter (tiled maps) but never its own or a later one,
  // not even through an enclosing binding of the same name.
  void iterate_map(const Node& entry, std::size_t dim, SymbolMap& env) {
    const ir::MapInfo& map = entry.map;
    if (dim == map.params.size()) {
      Wires wires;
      execute_scope(entry.id, env, wires);
      return;
    }
    for (std::size_t d = dim; d < map.params.size(); ++d) {
      env.erase(map.params[d]);
    }
    const ir::Range& range = map.ranges[dim];
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    if (step <= 0) {
      throw std::invalid_argument("interpreter: non-positive step in map '" +
                                  map.label + "'");
    }
    for (std::int64_t v = begin; v <= end; v += step) {
      env[map.params[dim]] = v;
      iterate_map(entry, dim + 1, env);
    }
  }

  void execute_tasklet(const Node& node, const SymbolMap& env, Wires& wires) {
    std::map<std::string, double> values;
    // Tasklets may reference program symbols and map parameters directly
    // (DaCe semantics), e.g. a layernorm dividing by the symbolic I.
    for (const std::string& name : node.code.read_connectors()) {
      auto symbol = env.find(name);
      if (symbol != env.end()) {
        values[name] = static_cast<double>(symbol->second);
      }
    }
    for (const Edge* edge : schedule_.in_adjacency[node.id]) {
      if (edge->memlet.is_empty()) {
        if (edge->dst_conn.empty()) continue;  // Pure dependency edge.
        auto it = wires.find({edge->src, edge->src_conn});
        if (it == wires.end()) {
          throw std::logic_error("interpreter: wire value for connector '" +
                                 edge->dst_conn + "' of tasklet '" +
                                 node.label + "' not produced yet");
        }
        values[edge->dst_conn] = it->second;
        continue;
      }
      const layout::Index indices =
          evaluate_point(edge->memlet.subset, env, edge->memlet.data);
      values[edge->dst_conn] = buffers_.at(edge->memlet.data, indices);
    }

    node.code.execute(values);

    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      auto it = values.find(edge->src_conn);
      if (edge->memlet.is_empty()) {
        if (edge->src_conn.empty()) continue;
        if (it == values.end()) {
          throw std::logic_error("interpreter: tasklet '" + node.label +
                                 "' does not produce connector '" +
                                 edge->src_conn + "'");
        }
        wires[{node.id, edge->src_conn}] = it->second;
        continue;
      }
      if (it == values.end()) {
        throw std::logic_error("interpreter: tasklet '" + node.label +
                               "' does not produce connector '" +
                               edge->src_conn + "'");
      }
      const layout::Index indices =
          evaluate_point(edge->memlet.subset, env, edge->memlet.data);
      double& cell = buffers_.at(edge->memlet.data, indices);
      switch (edge->memlet.wcr) {
        case ir::Wcr::None:
          cell = it->second;
          break;
        case ir::Wcr::Sum:
          cell += it->second;
          break;
        case ir::Wcr::Min:
          cell = std::min(cell, it->second);
          break;
        case ir::Wcr::Max:
          cell = std::max(cell, it->second);
          break;
      }
    }
  }

  void execute_copies(const Node& node, const SymbolMap& env) {
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      const Node& dst = state_->node(edge->dst);
      if (dst.kind != NodeKind::Access) continue;
      copy_subset(*edge, dst, env);
    }
  }

  void copy_subset(const Edge& edge, const Node& dst, const SymbolMap& env) {
    const ir::Subset& src_subset = edge.memlet.subset;
    const ir::Subset& dst_subset = edge.memlet.other_subset.ranges.empty()
                                       ? edge.memlet.subset
                                       : edge.memlet.other_subset;
    std::vector<layout::Index> sources = enumerate(src_subset, env);
    std::vector<layout::Index> destinations = enumerate(dst_subset, env);
    if (sources.size() != destinations.size()) {
      throw std::logic_error("interpreter: copy subset size mismatch on '" +
                             edge.memlet.data + "'");
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      buffers_.at(dst.data, destinations[i]) =
          buffers_.at(edge.memlet.data, sources[i]);
    }
  }

  static std::vector<layout::Index> enumerate(const ir::Subset& subset,
                                              const SymbolMap& env) {
    std::vector<std::array<std::int64_t, 3>> bounds;
    bounds.reserve(subset.ranges.size());
    for (const ir::Range& range : subset.ranges) {
      bounds.push_back({range.begin.evaluate(env), range.end.evaluate(env),
                        range.step.evaluate(env)});
    }
    std::vector<layout::Index> out;
    if (bounds.empty()) {
      out.push_back({});
      return out;
    }
    layout::Index cursor(bounds.size());
    for (std::size_t d = 0; d < bounds.size(); ++d) cursor[d] = bounds[d][0];
    for (;;) {
      out.push_back(cursor);
      int d = static_cast<int>(bounds.size()) - 1;
      for (; d >= 0; --d) {
        cursor[d] += bounds[d][2];
        if (cursor[d] <= bounds[d][1]) break;
        cursor[d] = bounds[d][0];
      }
      if (d < 0) break;
    }
    return out;
  }

  const Sdfg& sdfg_;
  const SymbolMap& symbols_;
  Buffers& buffers_;
  const ir::State* state_ = nullptr;
  ir::StateSchedule schedule_;
};

}  // namespace

Buffers::Buffers(const Sdfg& sdfg, const SymbolMap& symbols) {
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    ConcreteLayout layout = ConcreteLayout::from(descriptor, symbols);
    storage_.emplace(name,
                     std::vector<double>(layout.allocated_elements(), 0.0));
    layouts_.emplace(name, std::move(layout));
  }
}

const ConcreteLayout& Buffers::layout(const std::string& name) const {
  auto it = layouts_.find(name);
  if (it == layouts_.end()) {
    throw std::out_of_range("Buffers: unknown container '" + name + "'");
  }
  return it->second;
}

double& Buffers::at(const std::string& name,
                    std::span<const std::int64_t> indices) {
  const ConcreteLayout& l = layout(name);
  if (!l.in_bounds(indices)) {
    throw std::out_of_range("Buffers: out-of-bounds access on '" + name +
                            "'");
  }
  return storage_.at(name)[l.element_offset(indices)];
}

double Buffers::at(const std::string& name,
                   std::span<const std::int64_t> indices) const {
  const ConcreteLayout& l = layout(name);
  if (!l.in_bounds(indices)) {
    throw std::out_of_range("Buffers: out-of-bounds access on '" + name +
                            "'");
  }
  return storage_.at(name)[l.element_offset(indices)];
}

std::vector<double>& Buffers::raw(const std::string& name) {
  auto it = storage_.find(name);
  if (it == storage_.end()) {
    throw std::out_of_range("Buffers: unknown container '" + name + "'");
  }
  return it->second;
}

const std::vector<double>& Buffers::raw(const std::string& name) const {
  auto it = storage_.find(name);
  if (it == storage_.end()) {
    throw std::out_of_range("Buffers: unknown container '" + name + "'");
  }
  return it->second;
}

std::vector<double> Buffers::logical(const std::string& name) const {
  const ConcreteLayout& l = layout(name);
  std::vector<double> values;
  values.reserve(l.total_elements());
  for (std::int64_t flat = 0; flat < l.total_elements(); ++flat) {
    const layout::Index indices = l.unflatten(flat);
    values.push_back(storage_.at(name)[l.element_offset(indices)]);
  }
  return values;
}

void Buffers::set_logical(const std::string& name,
                          const std::vector<double>& values) {
  const ConcreteLayout& l = layout(name);
  if (static_cast<std::int64_t>(values.size()) != l.total_elements()) {
    throw std::invalid_argument("Buffers::set_logical: size mismatch for '" +
                                name + "'");
  }
  for (std::int64_t flat = 0; flat < l.total_elements(); ++flat) {
    const layout::Index indices = l.unflatten(flat);
    storage_.at(name)[l.element_offset(indices)] = values[flat];
  }
}

void run(const Sdfg& sdfg, const SymbolMap& symbols, Buffers& buffers) {
  Interpreter(sdfg, symbols, buffers).run();
}

}  // namespace dmv::exec
