#include "dmv/ir/validate.hpp"

#include <sstream>
#include <stdexcept>

namespace dmv::ir {

namespace {

void validate_state(const Sdfg& sdfg, const State& state,
                    std::vector<ValidationIssue>& issues) {
  auto report = [&](std::string message) {
    issues.push_back(ValidationIssue{state.name(), std::move(message)});
  };
  auto in_range = [&](NodeId id) {
    return id >= 0 && id < static_cast<NodeId>(state.num_nodes());
  };

  // Node payloads and scope references.
  for (const Node& node : state.nodes()) {
    if (node.scope_parent != kNoNode) {
      if (!in_range(node.scope_parent)) {
        report("node " + std::to_string(node.id) +
               " has out-of-range scope parent");
        continue;
      }
      if (state.node(node.scope_parent).kind != NodeKind::MapEntry) {
        report("node " + std::to_string(node.id) +
               " scope parent is not a map entry");
      }
    }
    if (node.paired != kNoNode && !in_range(node.paired)) {
      report("node " + std::to_string(node.id) +
             " has out-of-range paired node");
      continue;
    }
    switch (node.kind) {
      case NodeKind::Access:
        if (!sdfg.has_array(node.data)) {
          report("access node " + std::to_string(node.id) +
                 " references undeclared container '" + node.data + "'");
        }
        break;
      case NodeKind::Tasklet:
        if (node.code.statements.empty()) {
          report("tasklet " + std::to_string(node.id) + " ('" + node.label +
                 "') has an empty body");
        }
        break;
      case NodeKind::MapEntry: {
        if (node.map.params.size() != node.map.ranges.size()) {
          report("map entry " + std::to_string(node.id) +
                 " has mismatched params/ranges");
        }
        if (node.map.params.empty()) {
          report("map entry " + std::to_string(node.id) +
                 " has no parameters");
        }
        if (node.paired == kNoNode ||
            state.node(node.paired).kind != NodeKind::MapExit ||
            state.node(node.paired).paired != node.id) {
          report("map entry " + std::to_string(node.id) +
                 " has no matching exit");
        }
        break;
      }
      case NodeKind::MapExit:
        if (node.paired == kNoNode ||
            state.node(node.paired).kind != NodeKind::MapEntry) {
          report("map exit " + std::to_string(node.id) +
                 " has no matching entry");
        } else if (node.scope_parent != node.paired) {
          report("map exit " + std::to_string(node.id) +
                 " must live in the scope of its own entry");
        }
        break;
    }
  }

  // Edges: endpoint validity, memlet data, rank consistency, scoping.
  for (const Edge& edge : state.edges()) {
    if (!in_range(edge.src) || !in_range(edge.dst)) {
      report("edge references out-of-range node id");
      continue;
    }
    const Node& src = state.node(edge.src);
    const Node& dst = state.node(edge.dst);
    if (!edge.memlet.is_empty()) {
      if (!sdfg.has_array(edge.memlet.data)) {
        report("memlet references undeclared container '" + edge.memlet.data +
               "'");
      } else {
        const DataDescriptor& descriptor = sdfg.array(edge.memlet.data);
        if (descriptor.rank() > 0 &&
            edge.memlet.subset.rank() != descriptor.rank()) {
          report("memlet subset rank " +
                 std::to_string(edge.memlet.subset.rank()) +
                 " does not match rank " + std::to_string(descriptor.rank()) +
                 " of '" + descriptor.name + "'");
        }
      }
    }

    // Scope rule: an edge may stay within one scope, enter a scope through
    // its map entry, or leave through its map exit. (Note a map exit is a
    // member of the scope it closes, so body->exit is the same-scope case.)
    const bool same_scope = src.scope_parent == dst.scope_parent;
    const bool entry_to_inside =
        src.kind == NodeKind::MapEntry && dst.scope_parent == src.id;
    const bool exit_to_outside =
        src.kind == NodeKind::MapExit && in_range(src.paired) &&
        dst.scope_parent == state.node(src.paired).scope_parent;
    if (!(same_scope || entry_to_inside || exit_to_outside)) {
      report("edge " + std::to_string(edge.src) + "->" +
             std::to_string(edge.dst) + " crosses a map scope boundary");
    }
  }

  // Acyclicity.
  try {
    (void)state.topological_order();
  } catch (const std::logic_error&) {
    report("state dataflow graph is cyclic");
  }
}

}  // namespace

std::vector<ValidationIssue> validate(const Sdfg& sdfg) {
  std::vector<ValidationIssue> issues;

  // Descriptor sanity.
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    if (descriptor.shape.size() != descriptor.strides.size()) {
      issues.push_back(
          {"", "container '" + name + "' has shape/strides rank mismatch"});
    }
    if (descriptor.element_size <= 0) {
      issues.push_back(
          {"", "container '" + name + "' has non-positive element size"});
    }
  }

  for (const State& state : sdfg.states()) {
    validate_state(sdfg, state, issues);
  }
  return issues;
}

void validate_or_throw(const Sdfg& sdfg) {
  std::vector<ValidationIssue> issues = validate(sdfg);
  if (issues.empty()) return;
  std::ostringstream os;
  os << "SDFG '" << sdfg.name() << "' failed validation:";
  for (const ValidationIssue& issue : issues) {
    os << "\n  [" << (issue.state.empty() ? "<sdfg>" : issue.state) << "] "
       << issue.message;
  }
  throw std::runtime_error(os.str());
}

}  // namespace dmv::ir
