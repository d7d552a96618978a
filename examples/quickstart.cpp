// Quickstart: the whole library in one sitting.
//
// Builds a small parametric program (a matrix-vector product), then runs
// the two analysis levels the paper describes:
//   global view  — symbolic data-movement volumes, operation counts,
//                  arithmetic intensity, a rendered heatmap overlay;
//   local view   — bind the parameters, simulate the exact access
//                  pattern, compute reuse distances and predicted cache
//                  misses, estimate physical data movement.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>
#include <fstream>

#include "dmv/analysis/analysis.hpp"
#include "dmv/builder/program_builder.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"

int main() {
  using namespace dmv;

  // ---- 1. Build y[i] += A[i,j] * x[j] over symbolic M, N.
  builder::ProgramBuilder program("matvec");
  program.symbols({"M", "N"});
  program.array("A", {"M", "N"});
  program.array("x", {"N"});
  program.array("y", {"M"});
  program.state("compute");
  program.mapped_tasklet(
      "mv", {{"i", "0:M-1"}, {"j", "0:N-1"}},
      {{"a", "A", "i, j"}, {"v", "x", "j"}}, "o = a * v",
      {{"o", "y", "i", ir::Wcr::Sum}});
  ir::Sdfg sdfg = program.take();  // Validates the graph.

  // ---- 2. Global view: symbolic metrics, evaluated on demand.
  symbolic::Expr volume = analysis::total_movement_bytes(sdfg);
  symbolic::Expr operations = analysis::total_operations(sdfg);
  std::printf("symbolic movement: %s bytes\n", volume.to_string().c_str());
  std::printf("symbolic operations: %s\n", operations.to_string().c_str());
  symbolic::SymbolMap params{{"M", 8}, {"N", 16}};
  std::printf("at M=8, N=16: %lld bytes moved, %lld operations\n",
              static_cast<long long>(volume.evaluate(params)),
              static_cast<long long>(operations.evaluate(params)));

  // Scaling analysis: which parameter dominates? (Both linear here.)
  for (const analysis::SymbolScaling& scaling :
       analysis::movement_scaling(sdfg, params)) {
    std::printf("  movement ~ %s^%.2f\n", scaling.symbol.c_str(),
                scaling.exponent);
  }

  // Render the graph with a data-movement heatmap overlay.
  auto volumes = analysis::edge_volumes(sdfg);
  std::vector<double> values;
  for (const auto& edge_volume : volumes) {
    values.push_back(
        static_cast<double>(edge_volume.bytes.evaluate(params)));
  }
  viz::HeatmapScale scale =
      viz::HeatmapScale::fit(values, viz::ScalingPolicy::MedianCentered);
  viz::GraphRenderOptions options;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    options.edge_heat[volumes[i].ref.edge_index] = scale.normalize(values[i]);
  }
  std::ofstream("quickstart_graph.svg")
      << render_state_svg(sdfg.states()[0], options);
  std::printf("wrote quickstart_graph.svg\n");

  // ---- 3. Local view: simulate the exact access pattern and derive
  // counts, reuse distances, misses and movement in one engine run.
  sim::AccessTrace trace = sim::simulate(sdfg, params);
  const sim::PipelineResult local =
      sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                              .counts = true,
                                              .miss_threshold_lines = 8,
                                              .movement = true})
          .run(trace);
  const int x_id = trace.container_id("x");
  std::printf("x[0] is read %lld times (once per row)\n",
              static_cast<long long>(local.counts.reads[x_id][0]));
  std::printf(
      "predicted: %lld cold + %lld capacity misses -> ~%lld bytes from "
      "main memory (vs %lld logical)\n",
      static_cast<long long>(local.misses.total.cold),
      static_cast<long long>(local.misses.total.capacity),
      static_cast<long long>(local.movement.total_bytes),
      static_cast<long long>(volume.evaluate(params)));

  // ---- 4. Execute the program for real (reference interpreter).
  exec::Buffers buffers(sdfg, params);
  std::vector<double> a(8 * 16, 1.0), x_values(16);
  for (int j = 0; j < 16; ++j) x_values[j] = j;
  buffers.set_logical("A", a);
  buffers.set_logical("x", x_values);
  exec::run(sdfg, params, buffers);
  std::printf("y[0] = %.1f (expected sum 0..15 = 120)\n",
              buffers.logical("y")[0]);
  return 0;
}
