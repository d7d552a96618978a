#include "dmv/sim/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dmv/builder/program_builder.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/symbolic/parser.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sim {
namespace {

using builder::ProgramBuilder;

TEST(Simulate, OuterProductCounts) {
  // Fig 3/4c ground truth: A[i] read N times, B[j] read M times, C[i,j]
  // written exactly once.
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  AccessCounts counts = MetricPipeline().run(trace).counts;
  const int a = trace.container_id("A");
  const int b = trace.container_id("B");
  const int c = trace.container_id("C");
  for (std::int64_t e = 0; e < 3; ++e) EXPECT_EQ(counts.reads[a][e], 4);
  for (std::int64_t e = 0; e < 4; ++e) EXPECT_EQ(counts.reads[b][e], 3);
  for (std::int64_t e = 0; e < 12; ++e) {
    EXPECT_EQ(counts.writes[c][e], 1);
    EXPECT_EQ(counts.reads[c][e], 0);
  }
  EXPECT_EQ(trace.executions, 12);
}

TEST(Simulate, ConvAccessDistribution) {
  // Fig 4b: every output element of the 3-channel 9x9 -> 2-channel 6x6
  // convolution accumulates Cin*Ky*Kx = 48 contributions; interior input
  // elements are read most.
  ir::Sdfg sdfg = workloads::conv2d();
  AccessTrace trace = simulate(sdfg, workloads::conv2d_fig4());
  AccessCounts counts = MetricPipeline().run(trace).counts;
  const int out = trace.container_id("output");
  for (std::int64_t e = 0; e < 2 * 6 * 6; ++e) {
    EXPECT_EQ(counts.writes[out][e], 3 * 4 * 4);
  }
  const int in = trace.container_id("input");
  const ConcreteLayout& in_layout = trace.layouts[in];
  // Corner [ci, 0, 0] used by one (y, x) position per output channel.
  const std::int64_t corner =
      in_layout.flat_index(std::vector<std::int64_t>{0, 0, 0});
  EXPECT_EQ(counts.reads[in][corner], 2);
  // Center [0, 4, 4] participates in min(4,...) = 16 positions x 2.
  const std::int64_t center =
      in_layout.flat_index(std::vector<std::int64_t>{0, 4, 4});
  EXPECT_EQ(counts.reads[in][center], 2 * 16);
  // Weights: each weight element read once per output position.
  const int w = trace.container_id("weights");
  for (std::int64_t e = 0; e < 2 * 3 * 4 * 4; ++e) {
    EXPECT_EQ(counts.reads[w][e], 36);
  }
}

TEST(Simulate, EventsAreOrderedAndInBounds) {
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  ASSERT_FALSE(trace.events.empty());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const AccessEvent& event = trace.events[i];
    if (i > 0) {
      EXPECT_GE(event.execution, trace.events[i - 1].execution);
    }
    EXPECT_GE(event.flat, 0);
    EXPECT_LT(event.flat, trace.layouts[event.container].total_elements());
  }
}

TEST(Simulate, ReadsPrecedeWritesWithinExecution) {
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    if (trace.events[i].execution == trace.events[i - 1].execution) {
      // Within one execution, never a read after a write.
      EXPECT_FALSE(trace.events[i - 1].is_write &&
                   !trace.events[i].is_write);
    }
  }
}

TEST(Simulate, OutOfBoundsAccessThrows) {
  ProgramBuilder p("bad");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.state("s");
  p.mapped_tasklet("oob", {{"i", "0:N-1"}}, {{"v", "A", "i + 1"}}, "o = v",
                   {{"o", "A", "i"}});
  ir::Sdfg sdfg = p.take();
  EXPECT_THROW(simulate(sdfg, {{"N", 4}}), std::out_of_range);
}

TEST(Simulate, CopyEdgesEmitPairedEvents) {
  ProgramBuilder p("copy");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  p.copy("A", "0:N-1", "B", "0:N-1");
  ir::Sdfg sdfg = p.take();
  AccessTrace trace = simulate(sdfg, {{"N", 4}});
  ASSERT_EQ(trace.events.size(), 8u);
  AccessCounts counts = MetricPipeline().run(trace).counts;
  for (std::int64_t e = 0; e < 4; ++e) {
    EXPECT_EQ(counts.reads[trace.container_id("A")][e], 1);
    EXPECT_EQ(counts.writes[trace.container_id("B")][e], 1);
  }
}

TEST(Simulate, PlacementSeparatesContainers) {
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace trace = simulate(sdfg, workloads::matmul_fig5());
  // Base addresses are distinct and line-aligned.
  std::set<std::int64_t> bases;
  for (const ConcreteLayout& layout : trace.layouts) {
    EXPECT_EQ(layout.base_address % 64, 0);
    bases.insert(layout.base_address);
  }
  EXPECT_EQ(bases.size(), trace.layouts.size());
}

TEST(Related, OuterProductFig4c) {
  // Paper example: in C = A (x) B with i in [0,2], j in [0,3], an access
  // to B[0] is associated with accesses to C[i,0] and A[i] for all i.
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  const int a = trace.container_id("A");
  const int b = trace.container_id("B");
  const int c = trace.container_id("C");

  Selection select_b0{b, {0}};
  AccessCounts related = related_accesses(trace, {select_b0});
  // All three A elements related exactly once.
  for (std::int64_t e = 0; e < 3; ++e) EXPECT_EQ(related.reads[a][e], 1);
  // C[i, 0] (flat 0, 4, 8) written once each; other C elements zero.
  const ConcreteLayout& c_layout = trace.layouts[c];
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      const std::int64_t flat =
          c_layout.flat_index(std::vector<std::int64_t>{i, j});
      EXPECT_EQ(related.writes[c][flat], j == 0 ? 1 : 0);
    }
  }
}

TEST(Related, SelectionsStackAdditively) {
  // Fig 4c: selecting C[3-1,0], C[2,1], C[2,2] stacks the A/B counts.
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  const int a = trace.container_id("A");
  const int c = trace.container_id("C");
  const ConcreteLayout& c_layout = trace.layouts[c];
  Selection selection{c,
                      {c_layout.flat_index(std::vector<std::int64_t>{2, 0}),
                       c_layout.flat_index(std::vector<std::int64_t>{2, 1}),
                       c_layout.flat_index(std::vector<std::int64_t>{2, 2})}};
  AccessCounts related = related_accesses(trace, {selection});
  // A[2] participates in all three selected executions.
  EXPECT_EQ(related.reads[a][2], 3);
  EXPECT_EQ(related.reads[a][0], 0);
}

TEST(Related, TotalCombinesReadsAndWrites) {
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  AccessCounts counts = MetricPipeline().run(trace).counts;
  const int c = trace.container_id("C");
  std::vector<std::int64_t> total = counts.total(c);
  for (std::int64_t e = 0; e < 12; ++e) EXPECT_EQ(total[e], 1);
}

TEST(Trace, ContainerLookup) {
  ir::Sdfg sdfg = workloads::outer_product();
  AccessTrace trace = simulate(sdfg, workloads::outer_product_fig3());
  EXPECT_EQ(trace.layout_of("A").name, "A");
  EXPECT_THROW(trace.container_id("missing"), std::out_of_range);
}

TEST(Simulate, StridedSubsetsEnumerateCorrectly) {
  // A tasklet reading a strided row "0:N-1:2" through a map over rows:
  // every other column of each row, exercising step > 1 end to end.
  ProgramBuilder p("strided");
  p.symbols({"R", "N"});
  p.array("A", {"R", "N"});
  p.array("s", {"R"});
  p.state("main");
  // Map over rows; the tasklet's memlet covers a strided slice of the
  // row, so the simulation must expand it to ceil(N/2) events.
  ir::Sdfg sdfg = [&] {
    ir::Sdfg graph = p.sdfg();
    ir::State& state = graph.states().empty() ? graph.add_state("main")
                                              : graph.states()[0];
    auto [entry, exit] = state.add_map(ir::MapInfo{
        "rows", {"r"}, {ir::Range{0, symbolic::parse("R-1"), 1}}});
    // Tasklet reduces the strided slice; the simulator emits one event
    // per slice element even though the interpreter would reject the
    // non-scalar memlet — simulation is the feature under test.
    ir::NodeId tasklet = state.add_tasklet("sum", "o = v", entry);
    ir::NodeId source = state.add_access("A");
    ir::NodeId sink = state.add_access("s");
    state.add_edge(source, entry, ir::Memlet::simple("A", "0:R-1, 0:N-1:2"),
                   "", "IN_A");
    state.add_edge(entry, tasklet, ir::Memlet::simple("A", "r, 0:N-1:2"),
                   "OUT_A", "v");
    state.add_edge(tasklet, exit, ir::Memlet::simple("s", "r"), "o",
                   "IN_s");
    state.add_edge(exit, sink, ir::Memlet::simple("s", "0:R-1"), "OUT_s",
                   "");
    return graph;
  }();
  ir::validate_or_throw(sdfg);
  AccessTrace trace = simulate(sdfg, {{"R", 3}, {"N", 7}});
  AccessCounts counts = MetricPipeline().run(trace).counts;
  const int a = trace.container_id("A");
  const ConcreteLayout& layout = trace.layouts[a];
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t n = 0; n < 7; ++n) {
      const std::int64_t flat =
          layout.flat_index(std::vector<std::int64_t>{r, n});
      EXPECT_EQ(counts.reads[a][flat], n % 2 == 0 ? 1 : 0)
          << "r=" << r << " n=" << n;
    }
  }
  // 4 strided reads + 1 write per row.
  EXPECT_EQ(trace.events.size(), 3u * 5u);
}

TEST(IterationLineStats, PerfectUtilizationWhenDense) {
  // An elementwise pass touching one 8-byte element per execution with
  // 8-byte lines: one line per execution, fully used.
  ProgramBuilder p("dense");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  p.mapped_tasklet("id", {{"i", "0:N-1"}}, {{"v", "A", "i"}}, "o = v",
                   {{"o", "B", "i"}});
  ir::Sdfg sdfg = p.take();
  AccessTrace trace = simulate(sdfg, {{"N", 8}});
  IterationLineStats stats =
      iteration_line_stats(trace, trace.container_id("A"), 8);
  EXPECT_DOUBLE_EQ(stats.mean_lines_per_execution, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_line_utilization, 1.0);
  EXPECT_EQ(stats.executions, 8);
}

}  // namespace
}  // namespace dmv::sim
