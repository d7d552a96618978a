// §V-F validation: the paper deliberately counts no conflict misses,
// assuming a fully-associative LRU cache and citing McKinley & Temam and
// Beyls & D'Hollander that this predicts total misses well for low-
// associativity caches. This harness regenerates that evidence on our
// workloads: stack-distance prediction vs exact set-associative LRU
// simulation across associativities, plus a threshold-sensitivity sweep
// (the UI knob of §V-F b).

#include <cmath>
#include <cstdio>

#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

namespace sim = dmv::sim;

struct Workload {
  const char* name;
  dmv::ir::Sdfg sdfg;
  dmv::symbolic::SymbolMap params;
};

}  // namespace

int main() {
  const int line_size = 64;
  std::vector<Workload> workloads;
  workloads.push_back({"matmul 24^3", dmv::workloads::matmul(),
                       {{"M", 24}, {"K", 24}, {"N", 24}}});
  workloads.push_back({"conv 3c 9x9", dmv::workloads::conv2d(),
                       dmv::workloads::conv2d_fig4()});
  workloads.push_back(
      {"hdiff 16x16x8",
       dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
       {{"I", 16}, {"J", 16}, {"K", 8}}});
  workloads.push_back(
      {"hdiff tuned",
       dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Padded),
       {{"I", 16}, {"J", 16}, {"K", 8}}});

  std::printf(
      "Cache-model validation (paper §V-F): fully-associative stack-"
      "distance prediction vs exact set-associative LRU simulation.\n"
      "Cache sizes span a scaled L1 (64-256 lines = 4-16 KiB).\n\n");
  // One engine run per consumer setting: a threshold prediction or one
  // exact cache geometry.
  auto run = [&](const sim::AccessTrace& trace,
                 sim::PipelineConfig config) {
    config.line_size = line_size;
    config.counts = false;
    return sim::MetricPipeline(config).run(trace);
  };
  dmv::viz::TextTable table({"workload", "cache lines", "predicted",
                             "1-way", "2-way", "4-way", "8-way",
                             "max error"});
  for (Workload& workload : workloads) {
    sim::AccessTrace trace = sim::simulate(workload.sdfg, workload.params);
    for (std::int64_t lines : {64, 128, 256}) {
      const std::int64_t predicted =
          run(trace, {.miss_threshold_lines = lines}).misses.total.misses();
      std::vector<std::string> row{workload.name, std::to_string(lines),
                                   std::to_string(predicted)};
      double max_error = 0;
      for (int ways : {1, 2, 4, 8}) {
        const std::int64_t truth =
            run(trace, {.cache = sim::CacheConfig{line_size,
                                                  lines * line_size, ways}})
                .cache.total.misses();
        row.push_back(std::to_string(truth));
        max_error = std::max(
            max_error, std::abs(double(predicted) - double(truth)) /
                           double(std::max<std::int64_t>(truth, 1)));
      }
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.1f%%", 100.0 * max_error);
      row.push_back(buffer);
      table.add_row(std::move(row));
    }
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nExpected shape (McKinley&Temam, Beyls&D'Hollander): predictions "
      "track the set-associative truth closely; errors shrink with "
      "associativity (conflicts are a minority of misses).\n");

  // Threshold-sensitivity ablation: the user's capacity knob.
  std::printf("\nThreshold sensitivity (hdiff baseline, misses):\n");
  sim::AccessTrace trace = sim::simulate(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      dmv::workloads::hdiff_local());
  dmv::viz::TextTable sweep({"threshold [lines]", "cold", "capacity",
                             "hits"});
  for (std::int64_t threshold : {2, 4, 8, 16, 32, 64, 128}) {
    const sim::MissReport report =
        run(trace, {.miss_threshold_lines = threshold}).misses;
    sweep.add_row({std::to_string(threshold),
                   std::to_string(report.total.cold),
                   std::to_string(report.total.capacity),
                   std::to_string(report.total.hits)});
  }
  std::printf("%s", sweep.str().c_str());
  std::printf(
      "Cold misses are threshold-invariant; capacity misses fall "
      "monotonically as the modeled cache grows.\n");
  return 0;
}
