// Fig 4: multi-dimensional containers and access-pattern visualizations.
//   4a — the 4-D convolution weight tensor rendered with the alternating
//        horizontal/vertical nesting of §V-B.
//   4b — flattened-time access-count heatmap of a 3-channel 9x9 ->
//        2-channel 6x6 convolution (no padding).
//   4c — related accesses to A and B for C[2,0..2] in the outer product.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

namespace sim = dmv::sim;
namespace viz = dmv::viz;

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

std::vector<double> normalized(const std::vector<std::int64_t>& counts,
                               viz::ScalingPolicy policy) {
  std::vector<double> values(counts.begin(), counts.end());
  viz::HeatmapScale scale = viz::HeatmapScale::fit(values, policy);
  std::vector<double> heat(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    heat[i] = scale.normalize(values[i]);
  }
  return heat;
}

}  // namespace

int main() {
  std::filesystem::create_directories("dmv_renders");

  // ---- Fig 4a: the 4-D weight container.
  std::printf("Fig 4a: 4-D weight tensor w[Cout, Cin, Ky, Kx] tile view.\n");
  dmv::ir::Sdfg conv = dmv::workloads::conv2d();
  const dmv::symbolic::SymbolMap params = dmv::workloads::conv2d_fig4();
  sim::AccessTrace trace = sim::simulate(conv, params);
  const int weights = trace.container_id("weights");
  write_file("dmv_renders/fig4a_weights.svg",
             viz::render_tiles_svg(trace.layouts[weights]));

  // ---- Fig 4b: flattened access counts of the convolution.
  std::printf(
      "Fig 4b: access-count distribution, 3-channel 9x9 -> 2-channel "
      "6x6.\n");
  const sim::AccessCounts counts = sim::MetricPipeline().run(trace).counts;
  const int input = trace.container_id("input");
  const int output = trace.container_id("output");
  std::vector<std::int64_t> input_counts = counts.total(input);

  // The figure's tooltips: interior elements are accessed most; the
  // paper superimposes counts like 32 (interior) vs 2 (corner).
  const auto& layout = trace.layouts[input];
  auto count_at = [&](std::int64_t ci, std::int64_t y, std::int64_t x) {
    return input_counts[layout.flat_index(
        std::vector<std::int64_t>{ci, y, x})];
  };
  viz::TextTable tooltips({"element", "accesses"});
  tooltips.add_row({"input[0,0,0] (corner)", std::to_string(count_at(0, 0, 0))});
  tooltips.add_row({"input[0,0,4] (edge)", std::to_string(count_at(0, 0, 4))});
  tooltips.add_row(
      {"input[0,4,4] (interior)", std::to_string(count_at(0, 4, 4))});
  std::printf("%s", tooltips.str().c_str());
  std::printf(
      "Expected shape: interior >> edge > corner; every output element "
      "written Cin*Ky*Kx = 48 times.\n");

  std::vector<double> heat =
      normalized(input_counts, viz::ScalingPolicy::MedianCentered);
  viz::TileRenderOptions options;
  options.heat = &heat;
  options.counts = &input_counts;
  options.tile_size = 16;
  write_file("dmv_renders/fig4b_input_counts.svg",
             viz::render_tiles_svg(trace.layouts[input], options));
  // ASCII slice of channel 0 for terminal inspection.
  std::printf("input channel 0 heat (ASCII):\n%s",
              viz::ascii_heatmap(trace.layouts[input], heat, {0}).c_str());
  std::vector<std::int64_t> output_counts = counts.total(output);
  std::printf("output[0,0,0] accesses: %lld (expected 48)\n",
              static_cast<long long>(output_counts[0]));

  // ---- Fig 4c: related accesses in the outer product.
  std::printf(
      "\nFig 4c: related accesses for C[2,0], C[2,1], C[2,2] in the outer "
      "product.\n");
  dmv::ir::Sdfg outer = dmv::workloads::outer_product();
  sim::AccessTrace outer_trace =
      sim::simulate(outer, dmv::workloads::outer_product_fig3());
  const int a = outer_trace.container_id("A");
  const int b = outer_trace.container_id("B");
  const int c = outer_trace.container_id("C");
  const auto& c_layout = outer_trace.layouts[c];
  sim::Selection selection{
      c,
      {c_layout.flat_index(std::vector<std::int64_t>{2, 0}),
       c_layout.flat_index(std::vector<std::int64_t>{2, 1}),
       c_layout.flat_index(std::vector<std::int64_t>{2, 2})}};
  sim::AccessCounts related =
      sim::related_accesses(outer_trace, {selection});
  viz::TextTable related_table({"element", "related accesses"});
  for (std::int64_t e = 0; e < 3; ++e) {
    related_table.add_row(
        {"A[" + std::to_string(e) + "]", std::to_string(related.reads[a][e])});
  }
  for (std::int64_t e = 0; e < 4; ++e) {
    related_table.add_row(
        {"B[" + std::to_string(e) + "]", std::to_string(related.reads[b][e])});
  }
  std::printf("%s", related_table.str().c_str());
  std::printf(
      "Expected: A[2] stacks to 3 (all three selections), B[0..2] 1 each, "
      "B[3] 0.\n");

  std::vector<std::int64_t> a_related = related.total(a);
  std::vector<double> a_heat =
      normalized(a_related, viz::ScalingPolicy::Histogram);
  viz::TileRenderOptions a_options;
  a_options.heat = &a_heat;
  a_options.counts = &a_related;
  write_file("dmv_renders/fig4c_A_related.svg",
             viz::render_tiles_svg(outer_trace.layouts[a], a_options));
  std::printf("SVG renders written to dmv_renders/fig4*.svg\n");
  return 0;
}
