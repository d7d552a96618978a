// analyze_cli: a command-line analysis session over serialized SDFGs —
// what "remote analysis" (paper §VIII-b) looks like without an editor:
// ship the JSON to the target machine, analyze there.
//
// Usage:
//   analyze_cli <program.json> [--param NAME=VALUE ...] [commands...]
//
// Commands (default: summary):
//   summary     program outline + container inventory
//   volume      per-edge logical movement, ranked
//   scaling     per-symbol power-law exponents
//   simulate    local view: misses + physical movement (needs all params)
//   roofline    per-map roofline time model
//   svg=<path>  write the movement-heatmap SVG
//
// Example:
//   ./build/examples/analyze_cli jacobi.json --param N=12
//       summary volume simulate svg=jacobi.svg
//
// (Generate inputs with ir::to_json — e.g. run
//  examples/custom_kernel_analysis first to get jacobi.json.)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/analysis/profile.hpp"
#include "dmv/ir/json_reader.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"

namespace {

using namespace dmv;

int usage() {
  std::fprintf(stderr,
               "usage: analyze_cli <program.json> [--param NAME=VALUE ...] "
               "[summary|volume|scaling|simulate|roofline|svg=<path> ...]\n");
  return 2;
}

void command_summary(const ir::Sdfg& sdfg) {
  std::printf("%s", viz::outline(sdfg).c_str());
  viz::TextTable table({"container", "shape", "elem bytes", "transient"});
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    std::string shape;
    for (int d = 0; d < descriptor.rank(); ++d) {
      shape += (d ? ", " : "") + descriptor.shape[d].to_string();
    }
    table.add_row({name, "[" + shape + "]",
                   std::to_string(descriptor.element_size),
                   descriptor.transient ? "yes" : "no"});
  }
  std::printf("%s", table.str().c_str());
}

void command_volume(const ir::Sdfg& sdfg, const symbolic::SymbolMap& params) {
  viz::TextTable table({"rank", "container", "bytes"});
  auto ranked = analysis::rank_edges_by_volume(sdfg, params);
  for (std::size_t i = 0; i < ranked.size() && i < 15; ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3g", ranked[i].bytes);
    table.add_row({std::to_string(i + 1), ranked[i].data, buffer});
  }
  std::printf("%s", table.str().c_str());
}

void command_scaling(const ir::Sdfg& sdfg,
                     const symbolic::SymbolMap& params) {
  for (const analysis::SymbolScaling& scaling :
       analysis::movement_scaling(sdfg, params)) {
    std::printf("  movement ~ %s^%.2f\n", scaling.symbol.c_str(),
                scaling.exponent);
  }
}

void command_simulate(const ir::Sdfg& sdfg,
                      const symbolic::SymbolMap& params) {
  const sim::PipelineResult local =
      sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                              .counts = false,
                                              .miss_threshold_lines = 8,
                                              .movement = true})
          .run(sdfg, params);
  viz::TextTable table({"container", "accesses", "misses", "est. bytes"});
  for (std::size_t c = 0; c < local.containers.size(); ++c) {
    const sim::MissStats& stats = local.misses.per_container[c];
    table.add_row({local.containers[c], std::to_string(stats.accesses()),
                   std::to_string(stats.misses()),
                   std::to_string(local.movement.bytes_per_container[c])});
  }
  std::printf("%s", table.str().c_str());
}

void command_roofline(const ir::Sdfg& sdfg,
                      const symbolic::SymbolMap& params) {
  viz::TextTable table({"map", "ops", "bytes", "bound", "seconds"});
  for (const analysis::MapProfile& profile :
       analysis::roofline_profile(sdfg, params)) {
    char seconds[32], ops[32], bytes[32];
    std::snprintf(seconds, sizeof(seconds), "%.3g", profile.seconds);
    std::snprintf(ops, sizeof(ops), "%.3g", profile.operations);
    std::snprintf(bytes, sizeof(bytes), "%.3g", profile.boundary_bytes);
    table.add_row({profile.label, ops, bytes,
                   profile.bound == analysis::Bound::Compute ? "compute"
                                                             : "memory",
                   seconds});
  }
  std::printf("%s", table.str().c_str());
}

void command_svg(const ir::Sdfg& sdfg, const symbolic::SymbolMap& params,
                 const std::string& path) {
  auto volumes = analysis::edge_volumes(sdfg);
  std::vector<double> values;
  for (const auto& volume : volumes) {
    values.push_back(static_cast<double>(volume.bytes.evaluate(params)));
  }
  viz::HeatmapScale scale =
      viz::HeatmapScale::fit(values, viz::ScalingPolicy::MedianCentered);
  viz::GraphRenderOptions options;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    options.edge_heat[volumes[i].ref.edge_index] = scale.normalize(values[i]);
  }
  std::ofstream(path) << render_state_svg(sdfg.states()[0], options);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  std::ifstream input(argv[1]);
  if (!input) {
    std::fprintf(stderr, "analyze_cli: cannot open '%s'\n", argv[1]);
    return 1;
  }
  std::ostringstream text;
  text << input.rdbuf();

  symbolic::SymbolMap params;
  std::vector<std::string> commands;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--param") == 0) {
      if (i + 1 >= argc) return usage();
      const std::string assignment = argv[++i];
      const std::size_t equals = assignment.find('=');
      if (equals == std::string::npos) return usage();
      params[assignment.substr(0, equals)] =
          std::stoll(assignment.substr(equals + 1));
    } else {
      commands.emplace_back(argv[i]);
    }
  }
  if (commands.empty()) commands.emplace_back("summary");

  try {
    ir::Sdfg sdfg = ir::from_json(text.str());
    for (const std::string& command : commands) {
      std::printf("== %s ==\n", command.c_str());
      if (command == "summary") {
        command_summary(sdfg);
      } else if (command == "volume") {
        command_volume(sdfg, params);
      } else if (command == "scaling") {
        command_scaling(sdfg, params);
      } else if (command == "simulate") {
        command_simulate(sdfg, params);
      } else if (command == "roofline") {
        command_roofline(sdfg, params);
      } else if (command.rfind("svg=", 0) == 0) {
        command_svg(sdfg, params, command.substr(4));
      } else {
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        return usage();
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "analyze_cli: %s\n", error.what());
    return 1;
  }
  return 0;
}
