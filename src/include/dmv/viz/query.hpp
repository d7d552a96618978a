#pragma once

// Search, filtering, and the details panel (paper §IV-A).
//
// "As with traditional source code, the graphical representation can be
// searched to find specific elements, and it further allows for some
// types of elements to be filtered out" — search() is that lookup, and
// GraphRenderOptions-compatible kind filtering lives in render_state_svg
// via FilteredRender below. "Any additional information like data types,
// sizes, and alignment are hidden away and appear on-demand in a
// separate details panel" — details_panel() produces exactly that text.

#include <string>
#include <string_view>
#include <vector>

#include "dmv/ir/sdfg.hpp"

namespace dmv::viz {

struct SearchResult {
  int state_index = 0;
  ir::NodeId node = ir::kNoNode;
  ir::NodeKind kind = ir::NodeKind::Access;
  std::string label;
};

/// Case-insensitive substring search over node labels, container names,
/// map parameters, and tasklet code.
std::vector<SearchResult> search(const ir::Sdfg& sdfg,
                                 std::string_view query);

/// The on-demand details text for one element: container type / shape /
/// strides / element size / alignment facts for access nodes, code and
/// operation counts for tasklets, parameters and bounds for maps.
std::string details_panel(const ir::Sdfg& sdfg, int state_index,
                          ir::NodeId node);

}  // namespace dmv::viz
