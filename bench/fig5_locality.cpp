// Fig 5: physical data layouts, reuse distances, and estimated movement.
//   5a — cache-line overlay on the matmul operands (A 9x10, B 10x15,
//        4-byte values, 64-byte lines): selecting A[0,0], B[0,1] and
//        C[8,14] reveals A and C row-major, B column-major.
//   5b — median reuse-distance heatmap (32-byte lines) plus the
//        details-panel histogram for one element, listing cold misses.
//   5c — estimated cache misses and physical data movement for the
//        convolution inputs (64-byte lines, 8-byte values).

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

std::string index_string(const dmv::layout::Index& indices) {
  std::string text = "[";
  for (std::size_t d = 0; d < indices.size(); ++d) {
    text += (d ? "," : "") + std::to_string(indices[d]);
  }
  return text + "]";
}

}  // namespace

int main() {
  std::filesystem::create_directories("dmv_renders");

  // ---- Fig 5a.
  std::printf("Fig 5a: cache-line overlay on matmul (64 B lines).\n");
  dmv::ir::Sdfg mm = dmv::workloads::matmul(/*b_column_major=*/true);
  const dmv::symbolic::SymbolMap params = dmv::workloads::matmul_fig5();
  sim::AccessTrace trace = sim::simulate(mm, params);

  struct Probe {
    const char* container;
    std::vector<std::int64_t> element;
  };
  for (const Probe& probe :
       {Probe{"A", {0, 0}}, Probe{"B", {0, 1}}, Probe{"C", {8, 14}}}) {
    const auto& layout = trace.layout_of(probe.container);
    auto mates =
        dmv::layout::elements_sharing_line(layout, probe.element, 64);
    std::string line;
    for (const auto& mate : mates) line += index_string(mate) + " ";
    std::printf("  %s%s line mates: %s\n", probe.container,
                index_string(probe.element).c_str(), line.c_str());

    viz::TileRenderOptions options;
    for (const auto& mate : mates) {
      options.highlighted.insert(layout.flat_index(mate));
    }
    options.selected = {layout.flat_index(probe.element)};
    write_file(std::string("dmv_renders/fig5a_") + probe.container + ".svg",
               viz::render_tiles_svg(layout, options));
  }
  std::printf(
      "Expected reveal: A and C mates vary in the LAST index (row-major); "
      "B mates vary in the FIRST index (column-major).\n");

  // ---- Fig 5b.
  std::printf("\nFig 5b: median reuse distances (32 B lines).\n");
  const sim::PipelineResult locality =
      sim::MetricPipeline(sim::PipelineConfig{.line_size = 32,
                                              .counts = false,
                                              .keep_distances = true,
                                              .element_stats = true})
          .run(trace);
  for (const char* name : {"A", "B"}) {
    const int container = trace.container_id(name);
    const sim::ElementDistanceStats& stats =
        locality.element_stats[container];
    std::vector<double> heat(stats.median.size());
    std::vector<double> finite;
    for (std::int64_t d : stats.median) {
      if (d != sim::kInfiniteDistance) finite.push_back(double(d));
    }
    viz::HeatmapScale scale =
        viz::HeatmapScale::fit(finite, viz::ScalingPolicy::MedianCentered);
    for (std::size_t e = 0; e < heat.size(); ++e) {
      heat[e] = stats.median[e] == sim::kInfiniteDistance
                    ? 1.0
                    : scale.normalize(double(stats.median[e]));
    }
    viz::TileRenderOptions options;
    options.heat = &heat;
    write_file(std::string("dmv_renders/fig5b_") + name + "_median.svg",
               viz::render_tiles_svg(trace.layouts[container], options));
  }
  // Details panel for A[3,6] (the paper's probe).
  const int a = trace.container_id("A");
  const std::int64_t probe_flat =
      trace.layouts[a].flat_index(std::vector<std::int64_t>{3, 6});
  sim::DistanceHistogram histogram =
      sim::distance_histogram(trace, locality.distances, a, probe_flat);
  std::printf(
      "  A[3,6]: %zu finite-distance accesses, %lld cold miss(es); "
      "min=%lld max=%lld\n",
      histogram.distances.size(),
      static_cast<long long>(histogram.cold_misses),
      histogram.distances.empty()
          ? 0LL
          : static_cast<long long>(histogram.distances.front()),
      histogram.distances.empty()
          ? 0LL
          : static_cast<long long>(histogram.distances.back()));
  viz::HistogramRenderOptions histogram_options;
  histogram_options.title = "A[3,6] reuse distances";
  histogram_options.cold_misses = histogram.cold_misses;
  write_file("dmv_renders/fig5b_histogram.svg",
             viz::render_histogram_svg(histogram.distances,
                                       histogram_options));

  // ---- Fig 5c.
  std::printf(
      "\nFig 5c: estimated misses and physical movement, convolution "
      "(64 B lines, 8 B values, threshold 32 lines).\n");
  dmv::ir::Sdfg conv = dmv::workloads::conv2d();
  sim::AccessTrace conv_trace =
      sim::simulate(conv, dmv::workloads::conv2d_fig4());
  const sim::PipelineResult conv_local =
      sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                              .counts = false,
                                              .miss_threshold_lines = 32,
                                              .movement = true})
          .run(conv_trace);
  const sim::MissReport& report = conv_local.misses;
  const sim::MovementEstimate& movement = conv_local.movement;
  viz::TextTable table(
      {"container", "accesses", "cold", "capacity", "est. bytes moved"});
  for (std::size_t c = 0; c < conv_trace.containers.size(); ++c) {
    const sim::MissStats& stats = report.per_container[c];
    table.add_row({conv_trace.containers[c],
                   std::to_string(stats.accesses()),
                   std::to_string(stats.cold),
                   std::to_string(stats.capacity),
                   std::to_string(movement.bytes_per_container[c])});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "Expected shape: logical access counts far exceed physical bytes "
      "moved; weights (heavily reused) move least per access.\n");

  // Overlay: per-element predicted misses on the input container.
  const int input = conv_trace.container_id("input");
  std::vector<std::int64_t> misses = report.element_misses[input].values();
  std::vector<double> values(misses.begin(), misses.end());
  viz::HeatmapScale scale =
      viz::HeatmapScale::fit(values, viz::ScalingPolicy::Histogram);
  std::vector<double> heat(values.size());
  for (std::size_t e = 0; e < values.size(); ++e) {
    heat[e] = scale.normalize(values[e]);
  }
  viz::TileRenderOptions options;
  options.heat = &heat;
  options.counts = &misses;
  options.tile_size = 16;
  write_file("dmv_renders/fig5c_input_misses.svg",
             viz::render_tiles_svg(conv_trace.layouts[input], options));
  std::printf("SVG renders written to dmv_renders/fig5*.svg\n");
  return 0;
}
