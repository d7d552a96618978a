#include <gtest/gtest.h>

#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::viz {
namespace {

layout::ConcreteLayout grid(std::int64_t rows, std::int64_t cols) {
  layout::ConcreteLayout layout;
  layout.name = "G";
  layout.shape = {rows, cols};
  layout.strides = {cols, 1};
  layout.element_size = 8;
  return layout;
}

std::size_t count_rects(const std::string& svg) {
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  return rects;
}

TEST(AggregatedTiles, SmallContainerStaysOneToOne) {
  layout::ConcreteLayout layout = grid(4, 6);
  std::vector<double> values(24, 1.0);
  AggregatedTileOptions options;
  options.max_tiles_per_axis = 32;
  std::string svg = render_aggregated_tiles_svg(layout, values, options);
  EXPECT_EQ(count_rects(svg), 24u);
  EXPECT_NE(svg.find("1x1 elements/tile"), std::string::npos);
}

TEST(AggregatedTiles, LargeContainerAggregates) {
  // 256x256 capped to 32 tiles/axis: 8x8 elements per tile, 1024 rects.
  layout::ConcreteLayout layout = grid(256, 256);
  std::vector<double> values(256 * 256, 2.0);
  AggregatedTileOptions options;
  options.max_tiles_per_axis = 32;
  std::string svg = render_aggregated_tiles_svg(layout, values, options);
  EXPECT_EQ(count_rects(svg), 1024u);
  EXPECT_NE(svg.find("8x8 elements/tile"), std::string::npos);
}

TEST(AggregatedTiles, AggregationOperators) {
  layout::ConcreteLayout layout = grid(2, 2);
  std::vector<double> values{1, 2, 3, 4};
  AggregatedTileOptions options;
  options.max_tiles_per_axis = 1;  // Everything in one tile.
  options.aggregation = TileAggregation::Sum;
  EXPECT_NE(render_aggregated_tiles_svg(layout, values, options)
                .find(": 10<"),
            std::string::npos);
  options.aggregation = TileAggregation::Max;
  EXPECT_NE(render_aggregated_tiles_svg(layout, values, options)
                .find(": 4<"),
            std::string::npos);
  options.aggregation = TileAggregation::Mean;
  EXPECT_NE(render_aggregated_tiles_svg(layout, values, options)
                .find(": 2.5<"),
            std::string::npos);
}

TEST(AggregatedTiles, FullSizeHdiffView) {
  // The §VIII-c use case: the FULL-size hdiff parameters rendered as an
  // aggregated heatmap (I=J=256 would be 65k tiles unaggregated).
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  // Simulate a modest slice but render against the full logical shape.
  symbolic::SymbolMap params{{"I", 32}, {"J", 32}, {"K", 2}};
  sim::AccessTrace trace = sim::simulate(sdfg, params);
  sim::AccessCounts counts = sim::MetricPipeline().run(trace).counts;
  const int in_field = trace.container_id("in_field");
  std::vector<std::int64_t> totals = counts.total(in_field);
  std::vector<double> values(totals.begin(), totals.end());
  AggregatedTileOptions options;
  options.max_tiles_per_axis = 12;
  options.prefix = {0};
  std::string svg = render_aggregated_tiles_svg(trace.layouts[in_field],
                                                values, options);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_LE(count_rects(svg), 12u * 12u);
}

TEST(AggregatedTiles, ArgumentChecks) {
  layout::ConcreteLayout layout = grid(4, 4);
  std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(render_aggregated_tiles_svg(layout, wrong_size),
               std::invalid_argument);
  std::vector<double> values(16, 0.0);
  AggregatedTileOptions options;
  options.max_tiles_per_axis = 0;
  EXPECT_THROW(render_aggregated_tiles_svg(layout, values, options),
               std::invalid_argument);
  AggregatedTileOptions bad_prefix;
  bad_prefix.prefix = {0};
  EXPECT_THROW(render_aggregated_tiles_svg(layout, values, bad_prefix),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmv::viz
