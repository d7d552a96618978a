#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/ir/json_reader.hpp"
#include "dmv/symbolic/parser.hpp"
#include "dmv/util/json.hpp"

namespace dmv::ir {

namespace {

// ---------------------------------------------------------------------
// SDFG reconstruction on top of the shared dmv::json parser. Every
// json::ParseError (both lexical errors and schema-level type/key
// mismatches from the checked accessors), and every graph-construction
// error, is rethrown as ir::JsonError at the from_json boundary so
// callers keep a single exception type.

using json::Value;

/// Every integer field goes through here: the value must be integral
/// and inside T, since casting an out-of-range double is undefined.
template <typename T>
T integer(const Value& value) {
  const std::int64_t wide = value.as_int();
  if (wide < std::numeric_limits<T>::min() ||
      wide > std::numeric_limits<T>::max()) {
    throw JsonError("integer " + std::to_string(wide) + " out of range");
  }
  return static_cast<T>(wide);
}

symbolic::Expr parse_expr(const Value& value) {
  return symbolic::parse(value.as_string());
}

NodeKind node_kind_from(const std::string& name) {
  if (name == "access") return NodeKind::Access;
  if (name == "tasklet") return NodeKind::Tasklet;
  if (name == "map_entry") return NodeKind::MapEntry;
  if (name == "map_exit") return NodeKind::MapExit;
  throw JsonError("unknown node kind '" + name + "'");
}

Wcr wcr_from(const std::string& name) {
  if (name == "sum") return Wcr::Sum;
  if (name == "min") return Wcr::Min;
  if (name == "max") return Wcr::Max;
  if (name == "none") return Wcr::None;
  throw JsonError("unknown wcr '" + name + "'");
}

void read_containers(const Value& document, Sdfg& sdfg) {
  for (const Value& entry : document.at("containers").as_array()) {
    DataDescriptor descriptor;
    descriptor.name = entry.at("name").as_string();
    for (const Value& extent : entry.at("shape").as_array()) {
      descriptor.shape.push_back(parse_expr(extent));
    }
    for (const Value& stride : entry.at("strides").as_array()) {
      descriptor.strides.push_back(parse_expr(stride));
    }
    if (entry.has("start_offset")) {
      descriptor.start_offset = parse_expr(entry.at("start_offset"));
    }
    descriptor.element_size = integer<int>(entry.at("element_size"));
    descriptor.transient = entry.at("transient").as_bool();
    sdfg.add_array(std::move(descriptor));
  }
}

void read_state(const Value& entry, Sdfg& sdfg) {
  State& state = sdfg.add_state(entry.at("name").as_string());
  for (const Value& node_value : entry.at("nodes").as_array()) {
    Node node;
    node.id = integer<NodeId>(node_value.at("id"));
    node.kind = node_kind_from(node_value.at("kind").as_string());
    node.label = node_value.at("label").as_string();
    if (node_value.has("data")) {
      node.data = node_value.at("data").as_string();
    }
    if (node_value.has("code")) {
      node.code = parse_tasklet(node_value.at("code").as_string());
    }
    if (node.kind == NodeKind::MapEntry) {
      node.map.label = node.label;
      for (const Value& param : node_value.at("params").as_array()) {
        node.map.params.push_back(param.as_string());
      }
      for (const Value& range : node_value.at("ranges").as_array()) {
        Subset parsed = Subset::parse(range.as_string());
        if (parsed.rank() != 1) throw JsonError("bad map range");
        node.map.ranges.push_back(parsed.ranges[0]);
      }
      if (node_value.has("map_label")) {
        node.map.label = node_value.at("map_label").as_string();
      }
      if (node_value.has("collapsed")) {
        node.map.collapsed = node_value.at("collapsed").as_bool();
      }
    }
    if (node_value.has("paired")) {
      node.paired = integer<NodeId>(node_value.at("paired"));
    }
    if (node_value.has("scope")) {
      node.scope_parent = integer<NodeId>(node_value.at("scope"));
    }
    state.add_raw(std::move(node));
  }
  for (const Value& edge_value : entry.at("edges").as_array()) {
    Memlet memlet;
    if (edge_value.has("data")) {
      memlet.data = edge_value.at("data").as_string();
      memlet.subset = Subset::parse(edge_value.at("subset").as_string());
      memlet.volume = parse_expr(edge_value.at("volume"));
      if (edge_value.has("other_subset")) {
        memlet.other_subset =
            Subset::parse(edge_value.at("other_subset").as_string());
      }
      if (edge_value.has("wcr")) {
        memlet.wcr = wcr_from(edge_value.at("wcr").as_string());
      }
    }
    state.add_edge(
        integer<NodeId>(edge_value.at("src")),
        integer<NodeId>(edge_value.at("dst")), std::move(memlet),
        edge_value.has("src_conn") ? edge_value.at("src_conn").as_string()
                                   : "",
        edge_value.has("dst_conn") ? edge_value.at("dst_conn").as_string()
                                   : "");
  }
}

}  // namespace

Sdfg from_json(std::string_view text) {
  try {
    Value document = json::parse(text);
    Sdfg sdfg(document.at("name").as_string());
    for (const Value& symbol : document.at("symbols").as_array()) {
      sdfg.add_symbol(symbol.as_string());
    }
    read_containers(document, sdfg);
    for (const Value& state : document.at("states").as_array()) {
      read_state(state, sdfg);
    }
    return sdfg;
  } catch (const json::ParseError& error) {
    throw JsonError(error.what());
  } catch (const symbolic::ParseError& error) {
    throw JsonError(std::string("bad expression: ") + error.what());
  } catch (const TaskletParseError& error) {
    throw JsonError(std::string("bad tasklet code: ") + error.what());
  } catch (const std::logic_error& error) {
    // The graph's own checks: invalid_argument for a node id out of
    // sequence, a duplicate container or a malformed subset range, and
    // out_of_range for an edge endpoint that names no node.
    throw JsonError(std::string("bad graph: ") + error.what());
  }
}

}  // namespace dmv::ir
