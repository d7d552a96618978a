// Algorithmic ablation: the metric engine's O(log n)-per-access Fenwick
// formulation of Olken's stack-distance algorithm vs the naive O(n)
// LRU-stack scan. The paper's interactivity claim ("reducing the wait
// time for performance data ... to a fraction of a second") depends on
// the analysis pipeline staying fast as the parameterized sizes grow;
// this benchmark quantifies the asymptotic gap.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

namespace sim = dmv::sim;

sim::AccessTrace random_trace(std::int64_t elements, std::size_t length) {
  sim::AccessTrace trace;
  dmv::layout::ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {elements};
  layout.strides = {1};
  layout.element_size = 8;
  trace.containers = {"A"};
  trace.layouts = {layout};
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::int64_t> element(0, elements - 1);
  trace.events.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    sim::AccessEvent event;
    event.container = 0;
    event.flat = element(rng);
    trace.events.push_back(event);
  }
  return trace;
}

// The naive subject: distance = the line's depth in an explicit LRU
// stack, most recent first.
std::vector<std::int64_t> naive_distances(const sim::AccessTrace& trace,
                                          int line_size) {
  std::vector<std::int64_t> distances;
  std::vector<std::int64_t> stack;
  for (const sim::AccessEvent& event : trace.events) {
    const auto& layout = trace.layouts[event.container];
    const std::int64_t line =
        layout.byte_address(layout.unflatten(event.flat)) / line_size;
    const auto it = std::find(stack.begin(), stack.end(), line);
    distances.push_back(it == stack.end() ? sim::kInfiniteDistance
                                          : it - stack.begin());
    if (it != stack.end()) stack.erase(it);
    stack.insert(stack.begin(), line);
  }
  return distances;
}

// The engine with only the distance consumer on.
sim::MetricPipeline distance_pipeline() {
  return sim::MetricPipeline(sim::PipelineConfig{
      .line_size = 64, .counts = false, .keep_distances = true});
}

void BM_StackDistance_Fenwick(benchmark::State& state) {
  sim::AccessTrace trace =
      random_trace(state.range(0) / 4, state.range(0));
  sim::MetricPipeline pipeline = distance_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StackDistance_Naive(benchmark::State& state) {
  sim::AccessTrace trace =
      random_trace(state.range(0) / 4, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_distances(trace, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StackDistance_Hdiff(benchmark::State& state) {
  // The real pipeline cost at increasing parameterized sizes.
  const std::int64_t scale = state.range(0);
  dmv::ir::Sdfg sdfg =
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline);
  dmv::symbolic::SymbolMap params{
      {"I", scale}, {"J", scale}, {"K", std::max<std::int64_t>(2, scale / 2)}};
  sim::AccessTrace trace = sim::simulate(sdfg, params);
  sim::MetricPipeline pipeline = distance_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(trace));
  }
  state.SetLabel(std::to_string(trace.events.size()) + " events");
}

void BM_SimulatePipeline_HdiffLocal(benchmark::State& state) {
  // End-to-end local-view latency at the paper's 1/32 parameters: this
  // is the "fraction of a second" interactivity budget.
  dmv::ir::Sdfg sdfg =
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline);
  const dmv::symbolic::SymbolMap params = dmv::workloads::hdiff_local();
  for (auto _ : state) {
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    benchmark::DoNotOptimize(
        sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                                .counts = false,
                                                .miss_threshold_lines = 8,
                                                .movement = true})
            .run(trace)
            .movement.total_bytes);
  }
}

}  // namespace

// Wall-clock time: the engine may partition a feed over the dmv::par
// pool, whose workers' CPU time the main thread's clock would miss.
BENCHMARK(BM_StackDistance_Fenwick)->Range(1 << 10, 1 << 17)->UseRealTime();
BENCHMARK(BM_StackDistance_Naive)->Range(1 << 10, 1 << 15)->UseRealTime();
BENCHMARK(BM_StackDistance_Hdiff)->Arg(8)->Arg(16)->Arg(24)->UseRealTime();
BENCHMARK(BM_SimulatePipeline_HdiffLocal)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
