#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "dmv/builder/program_builder.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"

namespace dmv::sim {
namespace {

using builder::ProgramBuilder;

// The engine's kept per-event distances, plus element stats when asked.
PipelineResult engine(const AccessTrace& trace, int line_size,
                      bool element_stats = false) {
  return MetricPipeline(PipelineConfig{.line_size = line_size,
                                       .counts = false,
                                       .keep_distances = true,
                                       .element_stats = element_stats})
      .run(trace);
}

StackDistanceResult engine_distances(const AccessTrace& trace,
                                     int line_size) {
  return engine(trace, line_size).distances;
}

// The engine and the oracle's Olken pass both equal the naive LRU-stack
// scan.
void expect_distances_match_naive(const AccessTrace& trace, int line_size,
                                  const std::string& context) {
  const std::vector<std::int64_t> naive =
      reference::stack_distances_naive(trace, line_size).distances;
  EXPECT_EQ(engine_distances(trace, line_size).distances, naive) << context;
  EXPECT_EQ(reference::stack_distances(trace, line_size).distances, naive)
      << context;
}

// Builds a synthetic trace over one 1-D container from a flat index
// sequence, so distance algorithms can be tested on known streams.
AccessTrace synthetic_trace(std::int64_t elements,
                            const std::vector<std::int64_t>& sequence,
                            int element_size = 8) {
  AccessTrace trace;
  ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {elements};
  layout.strides = {1};
  layout.element_size = element_size;
  trace.containers = {"A"};
  trace.layouts = {layout};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    AccessEvent event;
    event.container = 0;
    event.flat = sequence[i];
    event.execution = static_cast<std::int64_t>(i);
    trace.events.push_back(event);
  }
  trace.executions = static_cast<std::int64_t>(sequence.size());
  return trace;
}

TEST(StackDistance, FirstAccessIsCold) {
  AccessTrace trace = synthetic_trace(8, {0, 1, 2});
  // Element size 8, line 8: each element its own line.
  StackDistanceResult result = engine_distances(trace, 8);
  for (std::int64_t d : result.distances) {
    EXPECT_EQ(d, kInfiniteDistance);
  }
}

TEST(StackDistance, ImmediateReuseIsZero) {
  AccessTrace trace = synthetic_trace(8, {3, 3, 3});
  StackDistanceResult result = engine_distances(trace, 8);
  EXPECT_EQ(result.distances[1], 0);
  EXPECT_EQ(result.distances[2], 0);
}

TEST(StackDistance, ClassicSequence) {
  // Stream a b c a: the re-access to a has seen 2 distinct lines since.
  AccessTrace trace = synthetic_trace(8, {0, 1, 2, 0});
  StackDistanceResult result = engine_distances(trace, 8);
  EXPECT_EQ(result.distances[3], 2);
}

TEST(StackDistance, RepeatsDoNotInflateDistance) {
  // a b b b a: only ONE distinct line between the two a's.
  AccessTrace trace = synthetic_trace(8, {0, 1, 1, 1, 0});
  StackDistanceResult result = engine_distances(trace, 8);
  EXPECT_EQ(result.distances[4], 1);
}

TEST(StackDistance, LineGranularitySharing) {
  // 8-byte elements, 64-byte lines: elements 0..7 share line 0. An
  // access to element 1 right after element 0 is a line re-reference
  // with distance 0 (the §V-E cache-line granularity rule).
  AccessTrace trace = synthetic_trace(16, {0, 1, 8, 0});
  StackDistanceResult result = engine_distances(trace, 64);
  EXPECT_EQ(result.distances[0], kInfiniteDistance);
  EXPECT_EQ(result.distances[1], 0);
  EXPECT_EQ(result.distances[2], kInfiniteDistance);
  EXPECT_EQ(result.distances[3], 1);
}

TEST(StackDistance, NaiveMatchesFenwickOnRandomStreams) {
  std::mt19937 rng(42);
  for (int round = 0; round < 10; ++round) {
    std::uniform_int_distribution<std::int64_t> element(0, 40);
    std::vector<std::int64_t> sequence(300);
    for (auto& s : sequence) s = element(rng);
    AccessTrace trace = synthetic_trace(48, sequence);
    for (int line : {8, 16, 64}) {
      expect_distances_match_naive(trace, line,
                                   "round " + std::to_string(round) +
                                       " line " + std::to_string(line));
    }
  }
}

TEST(StackDistance, NaiveMatchesFenwickOnRealWorkload) {
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  for (int line : {32, 64}) {
    expect_distances_match_naive(trace, line, "line " + std::to_string(line));
  }
}

TEST(ElementStats, MinMedianMaxAndCold) {
  // Element 0: accesses at distances inf, 0, 2.
  AccessTrace trace = synthetic_trace(8, {0, 0, 1, 2, 0});
  const ElementDistanceStats stats =
      engine(trace, 8, /*element_stats=*/true).element_stats[0];
  EXPECT_EQ(stats.cold_count[0], 1);
  EXPECT_EQ(stats.min[0], 0);
  EXPECT_EQ(stats.max[0], 2);
  EXPECT_EQ(stats.median[0], 2);  // Upper median of {0, 2}.
  // Element 3 never accessed: all stats stay infinite, no cold count.
  EXPECT_EQ(stats.cold_count[3], 0);
  EXPECT_EQ(stats.min[3], kInfiniteDistance);
}

TEST(ElementStats, MatmulFig5bColdMissAccounting) {
  // Fig 5b detail: the per-element histogram lists cold misses. Every
  // cache line of A is first touched through exactly one of its
  // elements, so the number of elements reporting one cold miss equals
  // the number of lines A spans, and a line-leading element (A[3,2] at
  // 32-byte lines with 4-byte values) lists exactly one.
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  const PipelineResult result = engine(trace, 32, /*element_stats=*/true);
  const int a = trace.container_id("A");
  const ElementDistanceStats& stats = result.element_stats[a];

  std::int64_t cold_elements = 0;
  for (std::int64_t cold : stats.cold_count) {
    EXPECT_LE(cold, 1);  // A line can only be first-touched once.
    cold_elements += cold;
  }
  EXPECT_EQ(cold_elements, layout::lines_spanned(trace.layouts[a], 32));

  const std::int64_t line_leader =
      trace.layouts[a].flat_index(std::vector<std::int64_t>{3, 2});
  DistanceHistogram histogram =
      distance_histogram(trace, result.distances, a, line_leader);
  EXPECT_EQ(histogram.cold_misses, 1);
  EXPECT_FALSE(histogram.distances.empty());
}

TEST(Histogram, ContainerWideAggregation) {
  AccessTrace trace = synthetic_trace(8, {0, 1, 0, 1, 2});
  StackDistanceResult result = engine_distances(trace, 8);
  DistanceHistogram histogram = distance_histogram(trace, result, 0);
  EXPECT_EQ(histogram.cold_misses, 3);
  EXPECT_EQ(histogram.distances.size(), 2u);
  EXPECT_TRUE(std::is_sorted(histogram.distances.begin(),
                             histogram.distances.end()));
}

TEST(StackDistance, PaddingChangesLineMapping) {
  // With padded strides the same logical accesses hit different lines:
  // two row-adjacent elements share a line unpadded but not padded.
  ProgramBuilder p("prog");
  p.symbols({"R", "C"});
  p.array("A", {"R", "C"});
  p.array("B", {"R", "C"});
  p.state("s");
  p.mapped_tasklet("id", {{"r", "0:R-1"}, {"c", "0:C-1"}},
                   {{"v", "A", "r, c"}}, "o = v", {{"o", "B", "r, c"}});
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"R", 4}, {"C", 12}};

  AccessTrace unpadded = simulate(sdfg, env);
  sdfg.array("A").strides = {symbolic::Expr(16), symbolic::Expr(1)};
  AccessTrace padded = simulate(sdfg, env);

  const int a = unpadded.container_id("A");
  auto lines = [&](const AccessTrace& trace) {
    std::set<std::int64_t> distinct;
    for (const AccessEvent& event : trace.events) {
      if (event.container != a) continue;
      const ConcreteLayout& layout = trace.layouts[a];
      distinct.insert(layout.byte_address(layout.unflatten(event.flat)) /
                      64);
    }
    return distinct.size();
  };
  EXPECT_LT(lines(unpadded), lines(padded));
}

TEST(Histogram, PerElementHistogramsPartitionContainerHistogram) {
  // The details panel can show one histogram for a whole container or
  // one per clicked element; the per-element views must partition the
  // container view exactly: cold misses sum up, and the per-element
  // finite distances, pooled, are the container's distance multiset.
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  const PipelineResult engine_result =
      engine(trace, 32, /*element_stats=*/true);
  const StackDistanceResult& result = engine_result.distances;
  const int a = trace.container_id("A");

  const DistanceHistogram container_wide =
      distance_histogram(trace, result, a);
  const ElementDistanceStats& stats = engine_result.element_stats[a];

  std::int64_t cold_sum = 0;
  std::vector<std::int64_t> pooled;
  const std::int64_t elements = trace.layouts[a].total_elements();
  for (std::int64_t flat = 0; flat < elements; ++flat) {
    const DistanceHistogram per_element =
        distance_histogram(trace, result, a, flat);
    cold_sum += per_element.cold_misses;
    pooled.insert(pooled.end(), per_element.distances.begin(),
                  per_element.distances.end());
    // Cross-check against the per-element stats pass.
    EXPECT_EQ(per_element.cold_misses,
              stats.cold_count[static_cast<std::size_t>(flat)]);
    if (!per_element.distances.empty()) {
      EXPECT_EQ(per_element.distances.front(),
                stats.min[static_cast<std::size_t>(flat)]);
      EXPECT_EQ(per_element.distances.back(),
                stats.max[static_cast<std::size_t>(flat)]);
    }
  }
  EXPECT_EQ(cold_sum, container_wide.cold_misses);
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(pooled, container_wide.distances);
}

}  // namespace
}  // namespace dmv::sim
