#include "dmv/ir/serialize.hpp"

#include <sstream>

#include "dmv/util/json.hpp"

namespace dmv::ir {

namespace {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::Access:
      return "access";
    case NodeKind::Tasklet:
      return "tasklet";
    case NodeKind::MapEntry:
      return "map_entry";
    case NodeKind::MapExit:
      return "map_exit";
  }
  return "?";
}

void write_node(std::ostringstream& os, const Node& node,
                const std::string& indent) {
  os << indent << "{\"id\": " << node.id << ", \"kind\": "
     << json::escape(node_kind_name(node.kind)) << ", \"label\": "
     << json::escape(node.label);
  if (node.kind == NodeKind::Access) {
    os << ", \"data\": " << json::escape(node.data);
  }
  if (node.kind == NodeKind::Tasklet) {
    os << ", \"code\": " << json::escape(node.code.source);
  }
  if (node.kind == NodeKind::MapEntry) {
    os << ", \"params\": [";
    for (std::size_t i = 0; i < node.map.params.size(); ++i) {
      if (i > 0) os << ", ";
      os << json::escape(node.map.params[i]);
    }
    os << "], \"ranges\": [";
    for (std::size_t i = 0; i < node.map.ranges.size(); ++i) {
      if (i > 0) os << ", ";
      os << json::escape(node.map.ranges[i].to_string());
    }
    os << ']';
  }
  if (node.paired != kNoNode) os << ", \"paired\": " << node.paired;
  if (node.scope_parent != kNoNode) {
    os << ", \"scope\": " << node.scope_parent;
  }
  os << '}';
}

void write_edge(std::ostringstream& os, const Edge& edge,
                const std::string& indent) {
  os << indent << "{\"src\": " << edge.src << ", \"dst\": " << edge.dst;
  if (!edge.src_conn.empty()) {
    os << ", \"src_conn\": " << json::escape(edge.src_conn);
  }
  if (!edge.dst_conn.empty()) {
    os << ", \"dst_conn\": " << json::escape(edge.dst_conn);
  }
  if (!edge.memlet.is_empty()) {
    os << ", \"data\": " << json::escape(edge.memlet.data) << ", \"subset\": "
       << json::escape(edge.memlet.subset.to_string()) << ", \"volume\": "
       << json::escape(edge.memlet.effective_volume().to_string());
    if (!edge.memlet.other_subset.ranges.empty()) {
      os << ", \"other_subset\": "
         << json::escape(edge.memlet.other_subset.to_string());
    }
    if (edge.memlet.wcr != Wcr::None) {
      os << ", \"wcr\": " << json::escape(to_string(edge.memlet.wcr));
    }
  }
  os << '}';
}

}  // namespace

std::string to_json(const Sdfg& sdfg) {
  std::ostringstream os;
  os << "{\n  \"name\": " << json::escape(sdfg.name()) << ",\n  \"symbols\": [";
  bool first = true;
  for (const std::string& symbol : sdfg.symbols()) {
    if (!first) os << ", ";
    first = false;
    os << json::escape(symbol);
  }
  os << "],\n  \"containers\": [\n";
  first = true;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": " << json::escape(name) << ", \"shape\": [";
    for (std::size_t d = 0; d < descriptor.shape.size(); ++d) {
      if (d > 0) os << ", ";
      os << json::escape(descriptor.shape[d].to_string());
    }
    os << "], \"strides\": [";
    for (std::size_t d = 0; d < descriptor.strides.size(); ++d) {
      if (d > 0) os << ", ";
      os << json::escape(descriptor.strides[d].to_string());
    }
    os << "], \"element_size\": " << descriptor.element_size
       << ", \"transient\": " << (descriptor.transient ? "true" : "false")
       << '}';
  }
  os << "\n  ],\n  \"states\": [\n";
  first = true;
  for (const State& state : sdfg.states()) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": " << json::escape(state.name())
       << ",\n     \"nodes\": [\n";
    bool first_node = true;
    for (const Node& node : state.nodes()) {
      if (!first_node) os << ",\n";
      first_node = false;
      write_node(os, node, "       ");
    }
    os << "\n     ],\n     \"edges\": [\n";
    bool first_edge = true;
    for (const Edge& edge : state.edges()) {
      if (!first_edge) os << ",\n";
      first_edge = false;
      write_edge(os, edge, "       ");
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string to_dot(const State& state) {
  std::ostringstream os;
  os << "digraph " << json::escape(state.name()) << " {\n";
  for (const Node& node : state.nodes()) {
    const char* shape = "box";
    if (node.kind == NodeKind::Access) shape = "ellipse";
    if (node.kind == NodeKind::MapEntry) shape = "trapezium";
    if (node.kind == NodeKind::MapExit) shape = "invtrapezium";
    os << "  n" << node.id << " [shape=" << shape
       << ", label=" << json::escape(node.label) << "];\n";
  }
  for (const Edge& edge : state.edges()) {
    os << "  n" << edge.src << " -> n" << edge.dst;
    if (!edge.memlet.is_empty()) {
      os << " [label=" << json::escape(edge.memlet.to_string()) << "]";
    }
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dmv::ir
