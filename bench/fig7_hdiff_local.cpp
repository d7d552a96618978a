// Fig 7: the local view of horizontal diffusion through the tuning
// process. The paper shows the estimated cache misses and physical data
// movement shrinking with each optimization step (parameterized at
// I=J=8, K=5 — a 1/32-scale version of the production size — 64-byte
// lines, 8-byte values).

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

namespace sim = dmv::sim;
using dmv::workloads::HdiffVariant;

const char* variant_name(HdiffVariant variant) {
  switch (variant) {
    case HdiffVariant::Baseline:
      return "baseline [I+4,J+4,K]";
    case HdiffVariant::Reshaped:
      return "reshaped [K,I+4,J+4]";
    case HdiffVariant::Reordered:
      return "+ k outermost";
    case HdiffVariant::Padded:
      return "+ padded rows";
  }
  return "?";
}

}  // namespace

int main() {
  std::filesystem::create_directories("dmv_renders");
  const dmv::symbolic::SymbolMap params = dmv::workloads::hdiff_local();
  const int line_size = 64;
  const std::int64_t threshold_lines = 8;  // A scaled L1 for the 1/32 sim.

  std::printf(
      "Fig 7 reproduction: hdiff local view, I=J=8 K=5, %d B lines, "
      "capacity threshold %lld lines.\n\n",
      line_size, static_cast<long long>(threshold_lines));

  dmv::viz::TextTable table({"stage", "accesses", "cold", "capacity",
                             "total misses", "est. bytes moved",
                             "in_field misses"});
  for (HdiffVariant variant :
       {HdiffVariant::Baseline, HdiffVariant::Reshaped,
        HdiffVariant::Reordered, HdiffVariant::Padded}) {
    dmv::ir::Sdfg sdfg = dmv::workloads::hdiff(variant);
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    const sim::PipelineResult local =
        sim::MetricPipeline(
            sim::PipelineConfig{.line_size = line_size,
                                .counts = false,
                                .miss_threshold_lines = threshold_lines,
                                .movement = true})
            .run(trace);
    const sim::MissReport& report = local.misses;
    const sim::MovementEstimate& movement = local.movement;
    const int in_field = trace.container_id("in_field");
    table.add_row({variant_name(variant),
                   std::to_string(report.total.accesses()),
                   std::to_string(report.total.cold),
                   std::to_string(report.total.capacity),
                   std::to_string(report.total.misses()),
                   std::to_string(movement.total_bytes),
                   std::to_string(
                       report.per_container[in_field].misses())});

    // The in-situ overlay of the figure: per-element predicted misses on
    // in_field.
    std::vector<std::int64_t> misses = report.element_misses[in_field].values();
    std::vector<double> values(misses.begin(), misses.end());
    dmv::viz::HeatmapScale scale = dmv::viz::HeatmapScale::fit(
        values, dmv::viz::ScalingPolicy::MedianCentered);
    std::vector<double> heat(values.size());
    for (std::size_t e = 0; e < values.size(); ++e) {
      heat[e] = scale.normalize(values[e]);
    }
    dmv::viz::TileRenderOptions options;
    options.heat = &heat;
    options.counts = &misses;
    options.tile_size = 14;
    std::ofstream out("dmv_renders/fig7_misses_stage" +
                      std::to_string(static_cast<int>(variant)) + ".svg");
    out << render_tiles_svg(trace.layouts[in_field], options);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nExpected shape (paper): misses and bytes drop with the reshape "
      "and again with the loop reorder. The padding step targets spatial "
      "locality, not the fully-associative miss count — see "
      "fig8_hdiff_steps for its metrics.\n"
      "SVG renders written to dmv_renders/fig7_*.svg\n");
  return 0;
}
