#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sim {
namespace {

// The engine's miss classification at one threshold.
MissReport misses(const AccessTrace& trace, int line_size,
                  std::int64_t threshold_lines) {
  return MetricPipeline(PipelineConfig{.line_size = line_size,
                                       .counts = false,
                                       .miss_threshold_lines = threshold_lines})
      .run(trace)
      .misses;
}

// The engine's exact LRU simulation.
CacheSimResult cache(const AccessTrace& trace, const CacheConfig& config) {
  return MetricPipeline(PipelineConfig{.counts = false, .cache = config})
      .run(trace)
      .cache;
}

// The engine's movement estimate at one threshold.
MovementEstimate movement(const AccessTrace& trace, int line_size,
                          std::int64_t threshold_lines) {
  return MetricPipeline(PipelineConfig{.line_size = line_size,
                                       .counts = false,
                                       .miss_threshold_lines = threshold_lines,
                                       .movement = true})
      .run(trace)
      .movement;
}

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

TEST(ClassifyMisses, ColdVsCapacity) {
  // Line per element; capacity 2 lines; stream 0 1 2 0: the re-access to
  // 0 saw 2 distinct lines, so LRU with 2 lines evicted it.
  AccessTrace trace = synthetic_trace(8, {0, 1, 2, 0});
  MissReport report = misses(trace, 8, 2);
  EXPECT_EQ(report.total.cold, 3);
  EXPECT_EQ(report.total.capacity, 1);
  EXPECT_EQ(report.total.hits, 0);

  // With 3 resident lines the re-access hits.
  MissReport larger = misses(trace, 8, 3);
  EXPECT_EQ(larger.total.cold, 3);
  EXPECT_EQ(larger.total.capacity, 0);
  EXPECT_EQ(larger.total.hits, 1);
}

TEST(ClassifyMisses, ElementAttribution) {
  AccessTrace trace = synthetic_trace(8, {0, 1, 2, 0});
  MissReport report = misses(trace, 8, 2);
  EXPECT_EQ(report.element_misses[0][0], 2);  // Cold + capacity.
  EXPECT_EQ(report.element_misses[0][1], 1);
  EXPECT_EQ(report.element_misses[0][3], 0);
}

TEST(ClassifyMisses, RejectsBadThreshold) {
  AccessTrace trace = synthetic_trace(4, {0});
  EXPECT_THROW(misses(trace, 8, -1), std::invalid_argument);
  // A zero threshold turns classification off, which movement needs.
  EXPECT_THROW(movement(trace, 8, 0), std::invalid_argument);
}

TEST(ClassifyMisses, MissStatsArithmetic) {
  MissStats stats{2, 3, 5};
  EXPECT_EQ(stats.misses(), 5);
  EXPECT_EQ(stats.accesses(), 10);
}

TEST(CacheSim, FullyAssociativeMatchesStackDistancePrediction) {
  // THE §V-F property: for a fully-associative LRU cache of T lines, an
  // access misses iff its stack distance is >= T or infinite. The
  // stack-distance classifier and the exact simulator must agree EXACTLY.
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::int64_t> element(0, 63);
  std::vector<std::int64_t> sequence(2000);
  for (auto& s : sequence) s = element(rng);
  AccessTrace trace = synthetic_trace(64, sequence);

  for (int line : {8, 64}) {
    for (std::int64_t lines_in_cache : {2, 4, 8, 16}) {
      MissReport predicted = misses(trace, line, lines_in_cache);
      CacheConfig config;
      config.line_size = line;
      config.total_size = lines_in_cache * line;
      config.ways = 0;  // Fully associative.
      CacheSimResult simulated = cache(trace, config);
      EXPECT_EQ(predicted.total.misses(), simulated.total.misses())
          << "line " << line << " cache lines " << lines_in_cache;
      EXPECT_EQ(predicted.total.cold, simulated.total.cold);
    }
  }
}

TEST(CacheSim, FullyAssociativeMatchesOnRealWorkloads) {
  for (auto variant :
       {workloads::HdiffVariant::Baseline,
        workloads::HdiffVariant::Reordered}) {
    ir::Sdfg sdfg = workloads::hdiff(variant);
    AccessTrace trace = simulate(sdfg, workloads::hdiff_local());
    for (std::int64_t lines : {8, 32}) {
      MissReport predicted = misses(trace, 64, lines);
      CacheConfig config{64, lines * 64, 0};
      CacheSimResult simulated = cache(trace, config);
      EXPECT_EQ(predicted.total.misses(), simulated.total.misses());
    }
  }
}

TEST(CacheSim, SetAssociativityAddsConflicts) {
  // Strided stream mapping to one set: direct-mapped thrashes where
  // fully-associative holds the working set.
  std::vector<std::int64_t> sequence;
  for (int round = 0; round < 50; ++round) {
    sequence.push_back(0);
    sequence.push_back(32);  // Same set in a 4-set direct-mapped cache.
  }
  AccessTrace trace = synthetic_trace(64, sequence);
  CacheConfig direct{8, 4 * 8, 1};  // 4 lines, direct mapped.
  CacheConfig full{8, 4 * 8, 0};
  const auto direct_misses = cache(trace, direct).total.misses();
  const auto full_misses = cache(trace, full).total.misses();
  EXPECT_GT(direct_misses, full_misses);
  EXPECT_EQ(full_misses, 2);  // Both lines fit: only the cold misses.
}

TEST(CacheSim, LruEvictionOrder) {
  // 2-line fully-associative cache, stream 0 1 0 2 1: the access to 2
  // evicts line 1 (LRU), so the final access to 1 misses.
  AccessTrace trace = synthetic_trace(8, {0, 1, 0, 2, 1});
  CacheConfig config{8, 16, 0};
  CacheSimResult result = cache(trace, config);
  EXPECT_EQ(result.total.cold, 3);
  EXPECT_EQ(result.total.capacity, 1);
  EXPECT_EQ(result.total.hits, 1);
}

TEST(CacheSim, RejectsBadGeometry) {
  // Rejected when the pipeline is built, before any trace is fed.
  for (const CacheConfig bad : {CacheConfig{0, 64, 1}, CacheConfig{64, 0, 1},
                                CacheConfig{64, 64, 8},
                                CacheConfig{64, 32, 0}}) {
    EXPECT_THROW(MetricPipeline(PipelineConfig{.cache = bad}),
                 std::invalid_argument);
  }
}

TEST(Movement, MissesTimesLineSize) {
  // Elements 0, 8 and 16 sit on three distinct 64-byte lines: the
  // stream a b c a misses four times with 2 resident lines.
  AccessTrace trace = synthetic_trace(24, {0, 8, 16, 0});
  MovementEstimate estimate = movement(trace, 64, 2);
  EXPECT_EQ(estimate.bytes_per_container[0], 4 * 64);
  EXPECT_EQ(estimate.total_bytes, 4 * 64);
}

TEST(Movement, PerContainerAttribution) {
  ir::Sdfg sdfg = workloads::conv2d();
  AccessTrace trace = simulate(sdfg, workloads::conv2d_fig4());
  MovementEstimate estimate = movement(trace, 64, 8);
  std::int64_t sum = 0;
  for (std::int64_t bytes : estimate.bytes_per_container) sum += bytes;
  EXPECT_EQ(sum, estimate.total_bytes);
  EXPECT_GT(estimate.total_bytes, 0);
}

TEST(CacheSim, ThresholdSensitivityMonotone) {
  // Higher capacity threshold can only reduce predicted misses — the
  // knob the paper's UI exposes (§V-F b).
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  AccessTrace trace = simulate(sdfg, workloads::hdiff_local());
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t threshold : {2, 4, 8, 16, 32, 64, 128}) {
    const std::int64_t total = misses(trace, 64, threshold).total.misses();
    EXPECT_LE(total, previous);
    previous = total;
  }
}

}  // namespace
}  // namespace dmv::sim
