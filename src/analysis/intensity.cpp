#include "dmv/analysis/analysis.hpp"

namespace dmv::analysis {

using ir::Node;
using ir::NodeKind;

namespace {

// Sum of operations of all tasklets transitively inside `map_entry`.
Expr scope_operations(const State& state, NodeId map_entry) {
  Expr total = 0;
  for (const Node& node : state.nodes()) {
    if (node.kind != NodeKind::Tasklet) continue;
    for (NodeId scope : state.scope_chain(node.id)) {
      if (scope == map_entry) {
        total = total + tasklet_operations(state, node.id);
        break;
      }
    }
  }
  return total;
}

// Bytes crossing the boundary of the map: edges into the entry from
// outside plus edges out of the exit to outside.
Expr scope_boundary_bytes(const Sdfg& sdfg, const State& state,
                          NodeId map_entry) {
  const Node& entry = state.node(map_entry);
  Expr total = 0;
  for (const ir::Edge& edge : state.edges()) {
    const bool into_entry =
        edge.dst == map_entry && edge_scope(state, edge) != map_entry;
    const bool out_of_exit = entry.paired != ir::kNoNode &&
                             edge.src == entry.paired &&
                             edge_scope(state, edge) != map_entry;
    if (!(into_entry || out_of_exit)) continue;
    total = total + total_edge_bytes(sdfg, state, edge);
  }
  return total;
}

}  // namespace

std::vector<MapIntensity> map_intensities(const Sdfg& sdfg,
                                          const SymbolMap& symbols) {
  std::vector<MapIntensity> result;
  for (int s = 0; s < static_cast<int>(sdfg.states().size()); ++s) {
    const State& state = sdfg.states()[s];
    for (const Node& node : state.nodes()) {
      if (node.kind != NodeKind::MapEntry) continue;
      // Only top-of-scope maps: nested maps are part of the outer kernel.
      if (node.scope_parent != ir::kNoNode) continue;
      MapIntensity intensity;
      intensity.ref = NodeRef{s, node.id};
      intensity.label = node.map.label;
      intensity.operations = static_cast<double>(
          scope_operations(state, node.id).evaluate(symbols));
      intensity.boundary_bytes = static_cast<double>(
          scope_boundary_bytes(sdfg, state, node.id).evaluate(symbols));
      intensity.intensity =
          intensity.boundary_bytes == 0
              ? 0
              : intensity.operations / intensity.boundary_bytes;
      result.push_back(std::move(intensity));
    }
  }
  return result;
}

}  // namespace dmv::analysis
