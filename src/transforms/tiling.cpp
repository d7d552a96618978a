#include <algorithm>
#include <stdexcept>

#include "dmv/transforms/transforms.hpp"

namespace dmv::transforms {

void tile_map(State& state, NodeId map_entry, const std::string& param,
              std::int64_t tile_size) {
  if (tile_size <= 0) {
    throw std::invalid_argument("tile_map: tile size must be positive");
  }
  ir::Node& entry = state.node(map_entry);
  if (entry.kind != ir::NodeKind::MapEntry) {
    throw std::invalid_argument("tile_map: node is not a map entry");
  }
  auto it = std::find(entry.map.params.begin(), entry.map.params.end(),
                      param);
  if (it == entry.map.params.end()) {
    throw std::invalid_argument("tile_map: map has no parameter '" + param +
                                "'");
  }
  const std::size_t position = it - entry.map.params.begin();
  // Copy: the insertions below invalidate references into the vector.
  const ir::Range range = entry.map.ranges[position];
  if (!range.step.is_constant(1)) {
    throw std::invalid_argument("tile_map: only unit-step ranges supported");
  }
  const symbolic::Expr extent = range.end - range.begin + 1;
  if (extent.is_constant() && extent.constant_value() % tile_size != 0) {
    throw std::invalid_argument(
        "tile_map: extent " + std::to_string(extent.constant_value()) +
        " not divisible by tile size " + std::to_string(tile_size));
  }
  const std::string tile_param = param + "_tile";
  for (const std::string& existing : entry.map.params) {
    if (existing == tile_param) {
      throw std::invalid_argument("tile_map: parameter '" + tile_param +
                                  "' already exists");
    }
  }

  // Outer tile counter, outermost position.
  ir::Range tile_range;
  tile_range.begin = 0;
  tile_range.end = extent / tile_size - 1;
  tile_range.step = 1;
  entry.map.params.insert(entry.map.params.begin(), tile_param);
  entry.map.ranges.insert(entry.map.ranges.begin(), tile_range);

  // The original parameter now walks one tile window; its bounds depend
  // on the tile counter, which every map walker binds before it
  // evaluates the inner dimension's bounds.
  const symbolic::Expr window_base =
      range.begin + symbolic::Expr::symbol(tile_param) * tile_size;
  ir::Range& inner = entry.map.ranges[position + 1];
  inner.begin = window_base;
  inner.end = window_base + (tile_size - 1);
  inner.step = 1;
}

}  // namespace dmv::transforms
