#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"
#include "sweep_cases.hpp"

// MetricPipeline contract: every drive (materialized and streaming)
// is bit-identical to the serial oracle of standalone_reference.hpp —
// fusion and arena reuse are pure performance changes. These tests
// drive hdiff and bert across several symbol bindings and require
// exact equality on every enabled consumer, plus the
// O(1)-event-storage property of streaming. Each workload test also
// runs its interactive slider sweep (sweep_cases.hpp).

namespace dmv::sim {
namespace {

using reference::expect_matches_standalone;
using reference::expect_stats_equal;

PipelineConfig full_config() {
  PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 64;
  config.keep_distances = true;
  config.element_stats = true;
  config.cache = CacheConfig{};
  config.movement = true;
  return config;
}

void check_workload(const ir::Sdfg& sdfg,
                    const std::vector<symbolic::SymbolMap>& bindings,
                    const PipelineConfig& config = full_config()) {
  MetricPipeline pipeline(config);
  for (const symbolic::SymbolMap& binding : bindings) {
    const AccessTrace trace = simulate(sdfg, binding);
    ASSERT_GT(trace.events.size(), 0u);
    expect_matches_standalone(pipeline.run(trace), trace,
                              pipeline.config());
    expect_matches_standalone(pipeline.run(sdfg, binding), trace,
                              pipeline.config());
    expect_matches_standalone(pipeline.run_streaming(sdfg, binding), trace,
                              pipeline.config());
  }
}

TEST(Pipeline, FusedAndStreamingMatchStandalonePassesOnHdiff) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  check_workload(sdfg, {symbolic::SymbolMap{{"I", 8}, {"J", 8}, {"K", 4}},
                        symbolic::SymbolMap{{"I", 12}, {"J", 10}, {"K", 6}},
                        symbolic::SymbolMap{{"I", 16}, {"J", 16}, {"K", 3}}});
  const sweep_cases::Sweep sweep = sweep_cases::hdiff_sweep();
  check_workload(sweep.sdfg, sweep.bindings, sweep_cases::sweep_config());
}

TEST(Pipeline, FusedAndStreamingMatchStandalonePassesOnBert) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  symbolic::SymbolMap small = workloads::bert_small();
  symbolic::SymbolMap wider = small;
  wider["SM"] = 12;
  symbolic::SymbolMap taller = small;
  taller["H"] = 4;
  taller["emb"] = 16;
  check_workload(sdfg, {small, wider, taller});
  const sweep_cases::Sweep sweep = sweep_cases::bert_sweep();
  check_workload(sweep.sdfg, sweep.bindings, sweep_cases::sweep_config());
}

TEST(Pipeline, StreamingNeverMaterializesTheEventVector) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 12}, {"J", 12}, {"K", 4}};

  MetricPipeline streaming(full_config());
  const PipelineResult result = streaming.run_streaming(sdfg, binding);
  EXPECT_GT(result.events, 0);
  // O(1) event storage: the arena never allocated a single event column.
  EXPECT_EQ(streaming.event_storage_bytes(), 0u);

  MetricPipeline materialized(full_config());
  materialized.run(sdfg, binding);
  EXPECT_GT(materialized.event_storage_bytes(), 0u);
}

TEST(Pipeline, SweepMatchesIndividualRunsInBothModes) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap base{{"I", 10}, {"J", 10}, {"K", 2}};
  const std::vector<std::int64_t> values{2, 4, 6};

  // A sweep is a loop of runs on one pipeline, whose arena carries over
  // from binding to binding and from one mode to the other.
  MetricPipeline pipeline(full_config());
  for (const std::int64_t value : values) {
    symbolic::SymbolMap binding = base;
    binding["K"] = value;
    const AccessTrace trace = simulate(sdfg, binding);
    expect_matches_standalone(pipeline.run(sdfg, binding), trace,
                              pipeline.config());
    expect_matches_standalone(pipeline.run_streaming(sdfg, binding), trace,
                              pipeline.config());
  }
}

TEST(Pipeline, CountsOnlyConfigSkipsDistanceMachinery) {
  PipelineConfig config;
  config.counts = true;  // Everything else off.
  EXPECT_FALSE(config.needs_distances());

  const ir::Sdfg sdfg = workloads::matmul();
  const symbolic::SymbolMap binding{{"M", 6}, {"N", 6}, {"K", 6}};
  const AccessTrace trace = simulate(sdfg, binding);

  MetricPipeline pipeline(config);
  const PipelineResult result = pipeline.run(trace);
  const AccessCounts counts = reference::count_accesses(trace);
  EXPECT_EQ(result.counts.reads, counts.reads);
  EXPECT_EQ(result.counts.writes, counts.writes);
  EXPECT_TRUE(result.distances.distances.empty());
  EXPECT_TRUE(result.misses.per_container.empty());
}

TEST(Pipeline, CacheWithDifferentLineSizeThanDistances) {
  PipelineConfig config = full_config();
  config.cache->line_size = 128;
  config.cache->total_size = 16 * 1024;

  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 10}, {"J", 10}, {"K", 4}};
  const AccessTrace trace = simulate(sdfg, binding);

  MetricPipeline pipeline(config);
  const PipelineResult fused = pipeline.run(trace);
  const PipelineResult streamed = pipeline.run_streaming(sdfg, binding);

  const CacheSimResult expected =
      reference::simulate_cache(trace, *config.cache);
  for (const PipelineResult* result : {&fused, &streamed}) {
    ASSERT_EQ(result->cache.per_container.size(),
              expected.per_container.size());
    for (std::size_t c = 0; c < expected.per_container.size(); ++c) {
      expect_stats_equal(result->cache.per_container[c],
                         expected.per_container[c]);
    }
    expect_stats_equal(result->cache.total, expected.total);
  }
}

TEST(Pipeline, RejectsInvalidConfigs) {
  PipelineConfig movement_without_misses;
  movement_without_misses.movement = true;
  movement_without_misses.miss_threshold_lines = 0;
  EXPECT_THROW(MetricPipeline{movement_without_misses},
               std::invalid_argument);

  PipelineConfig bad_line;
  bad_line.line_size = 0;
  EXPECT_THROW(MetricPipeline{bad_line}, std::invalid_argument);

  PipelineConfig bad_cache;
  bad_cache.cache = CacheConfig{};
  bad_cache.cache->total_size = 16;  // Smaller than one line.
  EXPECT_THROW(MetricPipeline{bad_cache}, std::invalid_argument);

  PipelineConfig negative_threshold;
  negative_threshold.miss_threshold_lines = -1;
  EXPECT_THROW(MetricPipeline{negative_threshold}, std::invalid_argument);
}

TEST(LineTable, MatchesPerEventAddressDerivation) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const AccessTrace trace =
      simulate(sdfg, symbolic::SymbolMap{{"I", 8}, {"J", 8}, {"K", 3}});
  const int line_size = 64;
  const LineTable table = build_line_table(trace, line_size);

  ASSERT_EQ(table.lines.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const AccessEvent event = trace.events[i];
    const ConcreteLayout& layout = trace.layouts[event.container];
    const std::int64_t expected =
        layout.byte_address(layout.unflatten(event.flat)) / line_size;
    ASSERT_EQ(table.lines[i], expected) << "event " << i;
  }
}

TEST(Pipeline, ArenaReuseAcrossDifferentWorkloads) {
  // One pipeline, traces of very different shapes — the arena must
  // re-dimension correctly on every run.
  MetricPipeline pipeline(full_config());
  const ir::Sdfg hdiff = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const ir::Sdfg mm = workloads::matmul();

  const symbolic::SymbolMap hdiff_binding{{"I", 10}, {"J", 10}, {"K", 3}};
  const symbolic::SymbolMap mm_binding{{"M", 12}, {"N", 4}, {"K", 9}};

  const AccessTrace hdiff_trace = simulate(hdiff, hdiff_binding);
  const AccessTrace mm_trace = simulate(mm, mm_binding);

  expect_matches_standalone(pipeline.run(hdiff_trace), hdiff_trace,
                            pipeline.config());
  expect_matches_standalone(pipeline.run(mm_trace), mm_trace,
                            pipeline.config());
  expect_matches_standalone(pipeline.run_streaming(hdiff, hdiff_binding),
                            hdiff_trace, pipeline.config());
  expect_matches_standalone(pipeline.run(hdiff_trace), hdiff_trace,
                            pipeline.config());
}

}  // namespace
}  // namespace dmv::sim
