#pragma once

// The test oracle for MetricPipeline: the standalone metric passes
// (count_accesses, stack_distances, classify_misses,
// element_distance_stats, simulate_cache, physical_movement) assembled
// into a PipelineResult, and an exact field-by-field comparison. Shared
// by the pipeline and metric-engine suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// The PipelineResult the standalone passes produce for `trace` under
/// `config` (only the enabled consumers are filled, like the pipeline).
inline PipelineResult standalone_result(const AccessTrace& trace,
                                        const PipelineConfig& config) {
  PipelineResult result;
  result.events = static_cast<std::int64_t>(trace.events.size());
  result.executions = trace.executions;
  result.containers = trace.containers;
  if (config.counts) result.counts = count_accesses(trace);
  StackDistanceResult distances;
  if (config.needs_distances()) {
    distances = stack_distances(trace, config.line_size);
  }
  if (config.keep_distances) result.distances = distances;
  if (config.miss_threshold_lines > 0) {
    result.misses =
        classify_misses(trace, distances, config.miss_threshold_lines);
  }
  if (config.element_stats) {
    for (std::size_t c = 0; c < trace.layouts.size(); ++c) {
      result.element_stats.push_back(
          element_distance_stats(trace, distances, static_cast<int>(c)));
    }
  }
  if (config.cache) result.cache = simulate_cache(trace, *config.cache);
  if (config.movement) {
    result.movement =
        physical_movement(trace, result.misses, config.line_size);
  }
  return result;
}

inline void expect_stats_equal(const MissStats& a, const MissStats& b,
                               const char* what = "") {
  EXPECT_EQ(a.cold, b.cold) << what;
  EXPECT_EQ(a.capacity, b.capacity) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
}

/// EVERY PipelineResult field, exact.
inline void expect_results_equal(const PipelineResult& actual,
                                 const PipelineResult& expected,
                                 const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(actual.events, expected.events);
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.containers, expected.containers);
  EXPECT_EQ(actual.counts.reads, expected.counts.reads);
  EXPECT_EQ(actual.counts.writes, expected.counts.writes);
  EXPECT_EQ(actual.distances.line_size, expected.distances.line_size);
  EXPECT_EQ(actual.distances.distances, expected.distances.distances);
  EXPECT_EQ(actual.misses.threshold_lines, expected.misses.threshold_lines);
  EXPECT_EQ(actual.misses.element_misses, expected.misses.element_misses);
  ASSERT_EQ(actual.misses.per_container.size(),
            expected.misses.per_container.size());
  for (std::size_t c = 0; c < expected.misses.per_container.size(); ++c) {
    expect_stats_equal(actual.misses.per_container[c],
                       expected.misses.per_container[c], "misses");
  }
  expect_stats_equal(actual.misses.total, expected.misses.total, "misses");
  ASSERT_EQ(actual.element_stats.size(), expected.element_stats.size());
  for (std::size_t c = 0; c < expected.element_stats.size(); ++c) {
    EXPECT_EQ(actual.element_stats[c].min, expected.element_stats[c].min);
    EXPECT_EQ(actual.element_stats[c].median,
              expected.element_stats[c].median);
    EXPECT_EQ(actual.element_stats[c].max, expected.element_stats[c].max);
    EXPECT_EQ(actual.element_stats[c].cold_count,
              expected.element_stats[c].cold_count);
  }
  EXPECT_EQ(actual.cache.config.line_size, expected.cache.config.line_size);
  EXPECT_EQ(actual.cache.config.total_size, expected.cache.config.total_size);
  EXPECT_EQ(actual.cache.config.ways, expected.cache.config.ways);
  ASSERT_EQ(actual.cache.per_container.size(),
            expected.cache.per_container.size());
  for (std::size_t c = 0; c < expected.cache.per_container.size(); ++c) {
    expect_stats_equal(actual.cache.per_container[c],
                       expected.cache.per_container[c], "cache");
  }
  expect_stats_equal(actual.cache.total, expected.cache.total, "cache");
  EXPECT_EQ(actual.movement.line_size, expected.movement.line_size);
  EXPECT_EQ(actual.movement.bytes_per_container,
            expected.movement.bytes_per_container);
  EXPECT_EQ(actual.movement.total_bytes, expected.movement.total_bytes);
}

/// `result` equals the standalone passes on `trace`, field by field.
inline void expect_matches_standalone(const PipelineResult& result,
                                      const AccessTrace& trace,
                                      const PipelineConfig& config,
                                      const std::string& context = "") {
  expect_results_equal(result, standalone_result(trace, config), context);
}

}  // namespace dmv::sim
