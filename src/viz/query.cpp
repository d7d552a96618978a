#include <algorithm>
#include <cctype>
#include <sstream>

#include "dmv/analysis/analysis.hpp"
#include "dmv/viz/query.hpp"

namespace dmv::viz {

namespace {

std::string lowered(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool contains_ci(std::string_view haystack, const std::string& needle) {
  return lowered(haystack).find(needle) != std::string::npos;
}

}  // namespace

std::vector<SearchResult> search(const ir::Sdfg& sdfg,
                                 std::string_view query) {
  const std::string needle = lowered(query);
  std::vector<SearchResult> results;
  if (needle.empty()) return results;
  for (int s = 0; s < static_cast<int>(sdfg.states().size()); ++s) {
    for (const ir::Node& node : sdfg.states()[s].nodes()) {
      bool matches = contains_ci(node.label, needle) ||
                     contains_ci(node.data, needle);
      if (node.kind == ir::NodeKind::Tasklet) {
        matches = matches || contains_ci(node.code.source, needle);
      }
      if (node.kind == ir::NodeKind::MapEntry) {
        for (const std::string& param : node.map.params) {
          matches = matches || contains_ci(param, needle);
        }
      }
      if (matches) {
        results.push_back(
            SearchResult{s, node.id, node.kind, node.label});
      }
    }
  }
  return results;
}

std::string details_panel(const ir::Sdfg& sdfg, int state_index,
                          ir::NodeId node_id) {
  const ir::State& state = sdfg.states().at(state_index);
  const ir::Node& node = state.node(node_id);
  std::ostringstream out;
  switch (node.kind) {
    case ir::NodeKind::Access: {
      const ir::DataDescriptor& descriptor = sdfg.array(node.data);
      out << "container " << descriptor.name << '\n';
      out << "  kind: " << (descriptor.transient ? "transient" : "program")
          << " array, rank " << descriptor.rank() << '\n';
      out << "  shape: [";
      for (int d = 0; d < descriptor.rank(); ++d) {
        out << (d ? ", " : "") << descriptor.shape[d].to_string();
      }
      out << "]\n  strides (elements): [";
      for (int d = 0; d < descriptor.rank(); ++d) {
        out << (d ? ", " : "") << descriptor.strides[d].to_string();
      }
      out << "]\n  element size: " << descriptor.element_size
          << " bytes\n";
      out << "  logical size: " << descriptor.logical_bytes().to_string()
          << " bytes\n";
      out << "  allocated: " << descriptor.allocated_bytes().to_string()
          << " bytes\n";
      break;
    }
    case ir::NodeKind::Tasklet: {
      out << "tasklet " << node.label << '\n';
      out << "  code: " << node.code.source << '\n';
      const ir::OpCount count = node.code.count_operations();
      out << "  operations/execution: " << count.total() << " (" << count.adds
          << " add, " << count.muls << " mul, " << count.divs << " div, "
          << count.comparisons << " cmp, " << count.special
          << " special)\n";
      out << "  total executions x ops: "
          << analysis::tasklet_operations(state, node_id).to_string()
          << '\n';
      break;
    }
    case ir::NodeKind::MapEntry:
    case ir::NodeKind::MapExit: {
      const ir::Node& entry =
          node.kind == ir::NodeKind::MapEntry ? node : state.node(node.paired);
      out << "map " << entry.map.label << '\n';
      for (std::size_t p = 0; p < entry.map.params.size(); ++p) {
        out << "  " << entry.map.params[p] << " in ["
            << entry.map.ranges[p].to_string() << "]\n";
      }
      out << "  iterations: "
          << analysis::scope_iterations(state, entry.id).to_string()
          << '\n';
      break;
    }
  }
  return out.str();
}

}  // namespace dmv::viz
