#include "dmv/sim/hierarchy.hpp"

#include <gtest/gtest.h>

#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sim {
namespace {

AccessTrace synthetic_trace(std::int64_t elements,
                            const std::vector<std::int64_t>& sequence) {
  AccessTrace trace;
  ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {elements};
  layout.strides = {1};
  layout.element_size = 8;
  trace.containers = {"A"};
  trace.layouts = {layout};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    AccessEvent event;
    event.container = 0;
    event.flat = sequence[i];
    trace.events.push_back(event);
  }
  return trace;
}

HierarchyConfig two_level(std::int64_t l1_lines, std::int64_t l2_lines,
                          int line = 8) {
  HierarchyConfig config;
  config.line_size = line;
  config.levels = {CacheLevel{"L1", l1_lines * line, 0},
                   CacheLevel{"L2", l2_lines * line, 0}};
  return config;
}

TEST(Hierarchy, HitsBubbleUpward) {
  // Line per element; L1 holds 2 lines, L2 holds 4. Stream 0 1 2 3 then
  // repeat: the repeats hit L2 (still resident) but not L1 (evicted).
  AccessTrace trace = synthetic_trace(8, {0, 1, 2, 3, 0, 1, 2, 3});
  HierarchyResult result = simulate_hierarchy(trace, two_level(2, 4));
  EXPECT_EQ(result.total_hits(0), 0);
  EXPECT_EQ(result.total_hits(1), 4);
  EXPECT_EQ(result.total_memory_accesses(), 4);
}

TEST(Hierarchy, L1HitsWhenWorkingSetFits) {
  AccessTrace trace = synthetic_trace(8, {0, 1, 0, 1, 0, 1});
  HierarchyResult result = simulate_hierarchy(trace, two_level(2, 4));
  EXPECT_EQ(result.total_hits(0), 4);
  EXPECT_EQ(result.total_memory_accesses(), 2);
}

TEST(Hierarchy, BytesIntoLevels) {
  AccessTrace trace = synthetic_trace(8, {0, 1, 2, 3, 0, 1, 2, 3});
  HierarchyResult result = simulate_hierarchy(trace, two_level(2, 4));
  // L1 receives every access that was not an L1 hit: L2 hits + memory.
  EXPECT_EQ(result.bytes_into_level(0), (4 + 4) * 8);
  // L2 receives only the memory accesses.
  EXPECT_EQ(result.bytes_into_level(1), 4 * 8);
}

TEST(Hierarchy, SingleLevelMatchesFlatSimulator) {
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  HierarchyConfig config;
  config.line_size = 64;
  config.levels = {CacheLevel{"L1", 16 * 64, 0}};
  HierarchyResult hierarchy = simulate_hierarchy(trace, config);
  CacheSimResult flat =
      MetricPipeline(PipelineConfig{.counts = false,
                                    .cache = CacheConfig{64, 16 * 64, 0}})
          .run(trace)
          .cache;
  EXPECT_EQ(hierarchy.total_hits(0), flat.total.hits);
  EXPECT_EQ(hierarchy.total_memory_accesses(), flat.total.misses());
}

TEST(Hierarchy, DeeperLevelsNeverHurt) {
  // Adding an L2 can only reduce memory accesses.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  AccessTrace trace = simulate(sdfg, workloads::hdiff_local());
  HierarchyConfig one;
  one.line_size = 64;
  one.levels = {CacheLevel{"L1", 8 * 64, 0}};
  HierarchyConfig two = one;
  two.levels.push_back(CacheLevel{"L2", 64 * 64, 0});
  EXPECT_LE(simulate_hierarchy(trace, two).total_memory_accesses(),
            simulate_hierarchy(trace, one).total_memory_accesses());
}

TEST(Hierarchy, PerContainerAttribution) {
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  HierarchyResult result =
      simulate_hierarchy(trace, HierarchyConfig::typical(1024));
  std::int64_t accounted = result.total_memory_accesses();
  for (std::size_t l = 0; l < result.hits.size(); ++l) {
    accounted += result.total_hits(static_cast<int>(l));
  }
  EXPECT_EQ(accounted, static_cast<std::int64_t>(trace.events.size()));
  EXPECT_EQ(result.containers.size(), trace.containers.size());
}

TEST(Hierarchy, TypicalConfigScales) {
  HierarchyConfig full = HierarchyConfig::typical();
  HierarchyConfig scaled = HierarchyConfig::typical(32);
  ASSERT_EQ(full.levels.size(), 3u);
  EXPECT_EQ(full.levels[0].total_size, 32 * 1024);
  EXPECT_LT(scaled.levels[0].total_size, full.levels[0].total_size);
  EXPECT_THROW(HierarchyConfig::typical(0), std::invalid_argument);
}

TEST(Hierarchy, ValidatesConfig) {
  AccessTrace trace = synthetic_trace(4, {0});
  HierarchyConfig empty;
  empty.levels.clear();
  EXPECT_THROW(simulate_hierarchy(trace, empty), std::invalid_argument);

  HierarchyConfig shrinking;
  shrinking.line_size = 8;
  shrinking.levels = {CacheLevel{"L1", 64, 0}, CacheLevel{"L2", 32, 0}};
  EXPECT_THROW(simulate_hierarchy(trace, shrinking), std::invalid_argument);

  HierarchyConfig tiny;
  tiny.line_size = 64;
  tiny.levels = {CacheLevel{"L1", 32, 0}};
  EXPECT_THROW(simulate_hierarchy(trace, tiny), std::invalid_argument);
}

}  // namespace
}  // namespace dmv::sim
