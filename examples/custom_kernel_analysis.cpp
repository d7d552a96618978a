// Analyzing your own kernel: a 5-point Jacobi sweep built from scratch
// with the public builder API, then pushed through every analysis the
// library offers — the template a downstream user would copy.
//
// Also demonstrates a what-if layout experiment the paper's §V-D overlay
// enables: compare cache behavior of row-major vs column-major storage
// of the same kernel without touching the kernel.
//
// Run: ./build/examples/custom_kernel_analysis

#include <cstdio>
#include <fstream>

#include "dmv/analysis/analysis.hpp"
#include "dmv/builder/program_builder.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"

namespace {

using namespace dmv;

ir::Sdfg build_jacobi() {
  builder::ProgramBuilder program("jacobi2d");
  program.symbols({"N"});
  program.array("grid", {"N + 2", "N + 2"});
  program.array("next", {"N", "N"});
  program.state("sweep");
  program.mapped_tasklet(
      "stencil", {{"i", "0:N-1"}, {"j", "0:N-1"}},
      {{"c", "grid", "i + 1, j + 1"},
       {"n", "grid", "i, j + 1"},
       {"s", "grid", "i + 2, j + 1"},
       {"w", "grid", "i + 1, j"},
       {"e", "grid", "i + 1, j + 2"}},
      "o = 0.2 * (c + n + s + w + e)", {{"o", "next", "i, j"}});
  return program.take();
}

sim::MissStats misses_for_layout(bool column_major,
                                 const symbolic::SymbolMap& params) {
  ir::Sdfg sdfg = build_jacobi();
  if (column_major) {
    ir::DataDescriptor& grid = sdfg.array("grid");
    grid.strides = ir::DataDescriptor::column_major_strides(grid.shape);
  }
  return sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                                 .counts = false,
                                                 .miss_threshold_lines = 8})
      .run(sim::simulate(sdfg, params))
      .misses.total;
}

}  // namespace

int main() {
  ir::Sdfg sdfg = build_jacobi();
  const symbolic::SymbolMap params{{"N", 12}};

  // Global metrics.
  std::printf("Jacobi 5-point sweep over grid[N+2, N+2]\n");
  std::printf("  movement: %s bytes\n",
              analysis::total_movement_bytes(sdfg).to_string().c_str());
  std::printf("  operations: %s\n",
              analysis::total_operations(sdfg).to_string().c_str());
  for (const analysis::MapIntensity& intensity :
       analysis::map_intensities(sdfg, params)) {
    std::printf("  map '%s': %.0f ops / %.0f boundary bytes = intensity "
                "%.3f\n",
                intensity.label.c_str(), intensity.operations,
                intensity.boundary_bytes, intensity.intensity);
  }

  // Local view: access counts on the input grid.
  sim::AccessTrace trace = sim::simulate(sdfg, params);
  const sim::AccessCounts counts = sim::MetricPipeline().run(trace).counts;
  const int grid = trace.container_id("grid");
  std::vector<std::int64_t> totals = counts.total(grid);
  std::vector<double> heat(totals.size());
  viz::HeatmapScale scale = viz::HeatmapScale::fit(
      std::vector<double>(totals.begin(), totals.end()),
      viz::ScalingPolicy::Histogram);
  for (std::size_t e = 0; e < totals.size(); ++e) {
    heat[e] = scale.normalize(static_cast<double>(totals[e]));
  }
  std::printf("\nAccess-count heatmap of grid (interior hit 5x):\n%s",
              viz::ascii_heatmap(trace.layouts[grid], heat).c_str());

  // Layout what-if: row-major vs column-major grid.
  std::printf("\nLayout experiment (64 B lines, 8-line cache):\n");
  const sim::MissStats row = misses_for_layout(false, params);
  const sim::MissStats column = misses_for_layout(true, params);
  std::printf("  row-major:    %lld misses\n",
              static_cast<long long>(row.misses()));
  std::printf("  column-major: %lld misses\n",
              static_cast<long long>(column.misses()));
  std::printf(
      "  (the sweep iterates j innermost, so row-major wins; flip the "
      "loop order and the comparison flips with it)\n");

  // Validate the kernel numerically.
  exec::Buffers buffers(sdfg, params);
  std::vector<double> initial(14 * 14, 1.0);
  buffers.set_logical("grid", initial);
  exec::run(sdfg, params, buffers);
  std::printf("\nnext[0][0] = %.2f (uniform field stays 1.0)\n",
              buffers.logical("next")[0]);

  std::ofstream("jacobi.json") << ir::to_json(sdfg);
  std::printf("IR dumped to jacobi.json\n");
  return 0;
}
