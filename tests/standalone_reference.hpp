#pragma once

// The test oracle for the metric engine: every MetricPipeline consumer
// (per-element counts, stack distances, miss classification, element
// distance stats, set-associative LRU, physical movement) as a small
// serial pass, assembled into a PipelineResult, plus an exact
// field-by-field comparison. Deliberately independent of src/sim's
// internals: line ids come straight from ConcreteLayout, distances from
// a plain Olken pass over a hash-map last-seen table, the cache from a
// per-set std::list LRU. stack_distances_naive (an LRU-stack scan)
// cross-checks the Olken pass itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim::reference {

inline std::int64_t line_of(const AccessTrace& trace, std::size_t event,
                            int line_size) {
  const ConcreteLayout& layout = trace.layouts[trace.events[event].container];
  return layout.byte_address(layout.unflatten(trace.events[event].flat)) /
         line_size;
}

/// One int64 vector per container, zeroed: the oracle counts in int64
/// and narrows only the finished vectors into result columns.
inline std::vector<std::vector<std::int64_t>> zero_tallies(
    const AccessTrace& trace) {
  std::vector<std::vector<std::int64_t>> tallies;
  for (const ConcreteLayout& layout : trace.layouts) {
    tallies.emplace_back(layout.total_elements(), 0);
  }
  return tallies;
}

inline std::vector<CountColumn> columns_of(
    const std::vector<std::vector<std::int64_t>>& tallies) {
  return {tallies.begin(), tallies.end()};
}

inline AccessCounts count_accesses(const AccessTrace& trace) {
  std::vector<std::vector<std::int64_t>> reads = zero_tallies(trace);
  std::vector<std::vector<std::int64_t>> writes = zero_tallies(trace);
  for (const AccessEvent& event : trace.events) {
    (event.is_write ? writes : reads)[event.container][event.flat]++;
  }
  return {columns_of(reads), columns_of(writes)};
}

/// Olken's algorithm: a mark at position p means "some line was last
/// referenced at p"; a reuse distance counts the marks after the line's
/// previous reference.
inline StackDistanceResult stack_distances(const AccessTrace& trace,
                                           int line_size) {
  const std::size_t n = trace.events.size();
  std::vector<std::int64_t> tree(n + 1, 0);  // 1-based Fenwick tree.
  auto add = [&](std::size_t p, int delta) {
    for (++p; p <= n; p += p & (~p + 1)) tree[p] += delta;
  };
  auto prefix = [&](std::size_t p) {  // Marks in [0, p).
    std::int64_t sum = 0;
    for (; p > 0; p -= p & (~p + 1)) sum += tree[p];
    return sum;
  };
  StackDistanceResult result{line_size, std::vector<std::int64_t>(n)};
  std::unordered_map<std::int64_t, std::size_t> last;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, first] = last.try_emplace(line_of(trace, i, line_size), i);
    if (first) {
      result.distances[i] = kInfiniteDistance;
    } else {
      result.distances[i] = prefix(i) - prefix(it->second + 1);
      add(it->second, -1);
      it->second = i;
    }
    add(i, +1);
  }
  return result;
}

/// O(n^2) LRU-stack scan: the distance is the line's depth in the stack.
inline StackDistanceResult stack_distances_naive(const AccessTrace& trace,
                                                 int line_size) {
  StackDistanceResult result{line_size, {}};
  std::vector<std::int64_t> stack;  // Most recent first.
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const std::int64_t line = line_of(trace, i, line_size);
    const auto it = std::find(stack.begin(), stack.end(), line);
    result.distances.push_back(it == stack.end() ? kInfiniteDistance
                                                 : it - stack.begin());
    if (it != stack.end()) stack.erase(it);
    stack.insert(stack.begin(), line);
  }
  return result;
}

inline ElementDistanceStats element_distance_stats(
    const AccessTrace& trace, const StackDistanceResult& result,
    int container) {
  const std::size_t elements =
      static_cast<std::size_t>(trace.layouts[container].total_elements());
  std::vector<std::vector<std::int64_t>> finite(elements);
  std::vector<std::int64_t> cold(elements, 0);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const AccessEvent event = trace.events[i];
    if (event.container != container) continue;
    if (result.distances[i] == kInfiniteDistance) {
      ++cold[event.flat];
    } else {
      finite[event.flat].push_back(result.distances[i]);
    }
  }
  ElementDistanceStats stats;
  stats.cold_count = CountColumn(cold);
  for (std::vector<std::int64_t>& distances : finite) {
    std::sort(distances.begin(), distances.end());
    const bool none = distances.empty();
    stats.min.push_back(none ? kInfiniteDistance : distances.front());
    stats.median.push_back(none ? kInfiniteDistance
                                : distances[distances.size() / 2]);
    stats.max.push_back(none ? kInfiniteDistance : distances.back());
  }
  return stats;
}

inline void add_access(MissStats& stats, bool cold, bool hit) {
  ++(cold ? stats.cold : hit ? stats.hits : stats.capacity);
}

inline void sum_total(const std::vector<MissStats>& per_container,
                      MissStats& total) {
  for (const MissStats& stats : per_container) {
    total.cold += stats.cold;
    total.capacity += stats.capacity;
    total.hits += stats.hits;
  }
}

inline MissReport classify_misses(const AccessTrace& trace,
                                  const StackDistanceResult& distances,
                                  std::int64_t threshold_lines) {
  MissReport report;
  report.threshold_lines = threshold_lines;
  report.per_container.resize(trace.layouts.size());
  std::vector<std::vector<std::int64_t>> element_misses = zero_tallies(trace);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const AccessEvent event = trace.events[i];
    const std::int64_t distance = distances.distances[i];
    const bool hit = distance < threshold_lines;
    add_access(report.per_container[event.container],
               distance == kInfiniteDistance, hit);
    if (!hit) ++element_misses[event.container][event.flat];
  }
  report.element_misses = columns_of(element_misses);
  sum_total(report.per_container, report.total);
  return report;
}

/// Exact LRU per set; a miss is cold iff the line was never resident.
inline CacheSimResult simulate_cache(const AccessTrace& trace,
                                     const CacheConfig& config) {
  const std::int64_t lines = config.total_size / config.line_size;
  const std::int64_t ways = config.ways == 0 ? lines : config.ways;
  const std::int64_t sets = lines / ways;
  std::vector<std::list<std::int64_t>> lru(sets);  // Front = MRU.
  std::unordered_set<std::int64_t> seen;
  CacheSimResult result;
  result.config = config;
  result.per_container.resize(trace.layouts.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const std::int64_t line = line_of(trace, i, config.line_size);
    std::list<std::int64_t>& set = lru[line % sets];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) set.erase(it);
    set.push_front(line);
    if (static_cast<std::int64_t>(set.size()) > ways) set.pop_back();
    add_access(result.per_container[trace.events[i].container],
               seen.insert(line).second, hit);
  }
  sum_total(result.per_container, result.total);
  return result;
}

inline MovementEstimate physical_movement(const AccessTrace& trace,
                                          const MissReport& report,
                                          int line_size) {
  MovementEstimate estimate;
  estimate.line_size = line_size;
  for (std::size_t c = 0; c < trace.layouts.size(); ++c) {
    estimate.bytes_per_container.push_back(
        report.per_container[c].misses() * line_size);
    estimate.total_bytes += estimate.bytes_per_container.back();
  }
  return estimate;
}

/// The PipelineResult the oracle produces for `trace` under `config`
/// (only the enabled consumers are filled, like the pipeline).
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

/// `result` equals the oracle on `trace`, field by field.
inline void expect_matches_standalone(const PipelineResult& result,
                                      const AccessTrace& trace,
                                      const PipelineConfig& config,
                                      const std::string& context = "") {
  expect_results_equal(result, standalone_result(trace, config), context);
}

}  // namespace dmv::sim::reference
