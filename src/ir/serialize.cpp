#include "dmv/ir/serialize.hpp"

#include <sstream>
#include <string_view>

#include "dmv/util/fnv1a.hpp"
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
    // Written only when set, so documents without them stay unchanged.
    if (node.map.label != node.label) {
      os << ", \"map_label\": " << json::escape(node.map.label);
    }
    if (node.map.collapsed) os << ", \"collapsed\": true";
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

/// structural_hash's state: one FNV-1a word step per field.
struct Hasher {
  std::uint64_t value = util::kFnvOffset;

  void word(std::uint64_t field) { value = util::fnv1a(value, field); }
  void number(std::int64_t field) { word(static_cast<std::uint64_t>(field)); }
  void text(std::string_view field) { word(util::fnv1a_string(field)); }
  void expr(const Expr& field) { word(field.structural_hash()); }

  void exprs(const std::vector<Expr>& fields) {
    word(fields.size());
    for (const Expr& field : fields) expr(field);
  }
  void range(const Range& field) {
    expr(field.begin);
    expr(field.end);
    expr(field.step);
  }
  void subset(const Subset& field) {
    word(field.ranges.size());
    for (const Range& dimension : field.ranges) range(dimension);
  }
};

void hash_node(Hasher& h, const Node& node) {
  h.number(node.id);
  h.number(static_cast<std::int64_t>(node.kind));
  h.text(node.label);
  // Per kind, the payload to_json writes.
  switch (node.kind) {
    case NodeKind::Access:
      h.text(node.data);
      break;
    case NodeKind::Tasklet:
      h.text(node.code.source);
      break;
    case NodeKind::MapEntry:
      h.text(node.map.label);
      h.word(node.map.params.size());
      for (const std::string& param : node.map.params) h.text(param);
      h.word(node.map.ranges.size());
      for (const Range& range : node.map.ranges) h.range(range);
      h.word(node.map.collapsed ? 1 : 0);
      break;
    case NodeKind::MapExit:
      break;
  }
  h.number(node.paired);
  h.number(node.scope_parent);
}

void hash_edge(Hasher& h, const Edge& edge) {
  h.number(edge.src);
  h.number(edge.dst);
  h.text(edge.src_conn);
  h.text(edge.dst_conn);
  const Memlet& memlet = edge.memlet;
  h.text(memlet.data);
  if (memlet.is_empty()) return;  // A dependency edge moves nothing.
  h.subset(memlet.subset);
  h.subset(memlet.other_subset);
  // Hashes the effective volume without building it: builders leave the
  // default 0, the reader stores the subset's element count, and both
  // mean the same volume, so both hash as one tag.
  const Expr& volume = memlet.volume;
  const bool default_volume =
      volume.is_constant(0) || volume.equals(memlet.subset.num_elements());
  h.word(default_volume ? 0 : 1);
  if (!default_volume) h.expr(volume);
  h.number(static_cast<std::int64_t>(memlet.wcr));
}

}  // namespace

std::uint64_t structural_hash(const Sdfg& sdfg) {
  Hasher h;
  h.text(sdfg.name());
  h.word(sdfg.symbols().size());
  for (const std::string& symbol : sdfg.symbols()) h.text(symbol);
  h.word(sdfg.arrays().size());
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    h.text(name);
    h.exprs(descriptor.shape);
    h.exprs(descriptor.strides);
    h.number(descriptor.element_size);
    h.expr(descriptor.start_offset);
    h.word(descriptor.transient ? 1 : 0);
  }
  h.word(sdfg.states().size());
  for (const State& state : sdfg.states()) {
    h.text(state.name());
    h.word(state.nodes().size());
    for (const Node& node : state.nodes()) hash_node(h, node);
    h.word(state.edges().size());
    for (const Edge& edge : state.edges()) hash_edge(h, edge);
  }
  return h.value;
}

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
    os << ']';
    if (!descriptor.start_offset.is_constant(0)) {
      os << ", \"start_offset\": "
         << json::escape(descriptor.start_offset.to_string());
    }
    os << ", \"element_size\": " << descriptor.element_size
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

}  // namespace dmv::ir
