#include "dmv/sim/trace_plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"

// The chunk planner's contract: plan_trace() predicts the serial event
// stream EXACTLY — total counts, per-chunk counts, and offsets — for
// every workload and binding, before a single event is generated. These
// tests cross-check plans against serial emission and regenerate each
// chunk in isolation to verify it reproduces its slice of the serial
// trace bit-for-bit.

namespace dmv::sim {
namespace {

using builder::ProgramBuilder;

// Serial ground truth: the parallel path must never be what we compare
// against here.
AccessTrace serial_trace(const ir::Sdfg& sdfg, const symbolic::SymbolMap& b) {
  par::ThreadScope scope(1);
  return simulate(sdfg, b);
}

// Validates the structural invariants of a plan and its agreement with
// the serial trace, then regenerates every chunk through simulate_chunk
// and compares each against the corresponding slice of the serial
// stream.
void expect_plan_matches_serial(const ir::Sdfg& sdfg,
                                const symbolic::SymbolMap& binding,
                                int max_chunks_per_map = 4) {
  const AccessTrace reference = serial_trace(sdfg, binding);
  const TracePlan plan = plan_trace(sdfg, binding, {}, max_chunks_per_map);
  ASSERT_TRUE(plan.parallelizable);
  EXPECT_EQ(plan.total_events,
            static_cast<std::int64_t>(reference.events.size()));
  EXPECT_EQ(plan.total_executions, reference.executions);

  // Chunks tile the stream: contiguous event and execution offsets.
  std::int64_t event_cursor = 0;
  std::int64_t execution_cursor = 0;
  for (const TraceChunk& chunk : plan.chunks) {
    EXPECT_EQ(chunk.event_offset, event_cursor);
    EXPECT_EQ(chunk.execution_offset, execution_cursor);
    EXPECT_GT(chunk.event_count + chunk.execution_count, 0)
        << "planner emitted an empty chunk";
    event_cursor += chunk.event_count;
    execution_cursor += chunk.execution_count;
  }
  EXPECT_EQ(event_cursor, plan.total_events);
  EXPECT_EQ(execution_cursor, plan.total_executions);

  // Each chunk regenerated in isolation reproduces its serial slice.
  for (const TraceChunk& chunk : plan.chunks) {
    EventList events;
    simulate_chunk(sdfg, binding, {}, reference, chunk, events,
                   /*absolute=*/false);
    ASSERT_EQ(static_cast<std::int64_t>(events.size()), chunk.event_count);
    for (std::int64_t i = 0; i < chunk.event_count; ++i) {
      const AccessEvent got = events[static_cast<std::size_t>(i)];
      const AccessEvent want =
          reference.events[static_cast<std::size_t>(chunk.event_offset + i)];
      ASSERT_EQ(got.container, want.container) << "chunk event " << i;
      ASSERT_EQ(got.flat, want.flat) << "chunk event " << i;
      ASSERT_EQ(got.is_write, want.is_write) << "chunk event " << i;
      ASSERT_EQ(got.execution, want.execution) << "chunk event " << i;
      ASSERT_EQ(got.tasklet, want.tasklet) << "chunk event " << i;
    }
  }
}

TEST(TracePlan, HdiffAcrossBindings) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  expect_plan_matches_serial(sdfg, workloads::hdiff_local());
  expect_plan_matches_serial(sdfg, {{"I", 5}, {"J", 7}, {"K", 3}});
  expect_plan_matches_serial(sdfg, {{"I", 16}, {"J", 4}, {"K", 1}});
}

TEST(TracePlan, BertAcrossBindings) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  expect_plan_matches_serial(sdfg, workloads::bert_small());
  expect_plan_matches_serial(
      sdfg,
      {{"B", 1}, {"H", 1}, {"SM", 4}, {"I", 8}, {"emb", 16}, {"P", 4}});
  expect_plan_matches_serial(
      sdfg,
      {{"B", 2}, {"H", 2}, {"SM", 4}, {"I", 8}, {"emb", 8}, {"P", 2}});
}

TEST(TracePlan, MatmulAcrossBindings) {
  const ir::Sdfg sdfg = workloads::matmul();
  expect_plan_matches_serial(sdfg, workloads::matmul_fig5());
  expect_plan_matches_serial(sdfg, {{"M", 3}, {"N", 5}, {"K", 7}});
  expect_plan_matches_serial(sdfg, {{"M", 1}, {"N", 1}, {"K", 9}});
}

TEST(TracePlan, ConvAcrossBindings) {
  const ir::Sdfg sdfg = workloads::conv2d();
  expect_plan_matches_serial(sdfg, workloads::conv2d_fig4());
  symbolic::SymbolMap binding = workloads::conv2d_fig4();
  binding["Cout"] = 1;
  expect_plan_matches_serial(sdfg, binding);
  binding["Hh"] = 6;
  binding["W"] = 6;
  expect_plan_matches_serial(sdfg, binding);
}

TEST(TracePlan, OuterProductAcrossBindings) {
  const ir::Sdfg sdfg = workloads::outer_product();
  expect_plan_matches_serial(sdfg, workloads::outer_product_fig3());
  expect_plan_matches_serial(sdfg, {{"M", 1}, {"N", 17}});
  expect_plan_matches_serial(sdfg, {{"M", 64}, {"N", 2}});
}

TEST(TracePlan, ManyChunksPerMap) {
  // Oversplitting (more chunks than outer iterations available) must
  // still tile the stream exactly.
  const ir::Sdfg sdfg = workloads::outer_product();
  expect_plan_matches_serial(sdfg, {{"M", 6}, {"N", 3}},
                             /*max_chunks_per_map=*/64);
}

TEST(TracePlan, DegenerateExtentZeroMap) {
  // A map whose outer extent is 0 at this binding contributes nothing.
  ProgramBuilder p("empty_map");
  p.symbols({"N"});
  p.array("A", {"8"});
  p.array("B", {"8"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "o = a",
                   {{"o", "B", "i"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 0}};

  const TracePlan plan = plan_trace(sdfg, binding, {});
  ASSERT_TRUE(plan.parallelizable);
  EXPECT_EQ(plan.total_events, 0);
  EXPECT_EQ(plan.total_executions, 0);
  EXPECT_TRUE(plan.chunks.empty());
  expect_plan_matches_serial(sdfg, binding);
  // The parallel entry points handle the empty plan too.
  EXPECT_EQ(simulate(sdfg, binding).events.size(), 0u);
}

TEST(TracePlan, DegenerateExtentOneMap) {
  // A single outer iteration cannot be split further than one chunk.
  ProgramBuilder p("one_iter");
  p.symbols({"N"});
  p.array("A", {"4", "N"});
  p.array("B", {"4", "N"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:0"}, {"j", "0:N-1"}}, {{"a", "A", "i, j"}},
                   "o = a", {{"o", "B", "i, j"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 5}};

  const TracePlan plan = plan_trace(sdfg, binding, {}, 8);
  ASSERT_TRUE(plan.parallelizable);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].outer_begin, 0);
  EXPECT_EQ(plan.chunks[0].outer_count, 1);
  expect_plan_matches_serial(sdfg, binding, 8);
}

TEST(TracePlan, ZeroTripNestedMap) {
  // The outer map runs but the nested tasklet map is empty at this
  // binding: no executions are generated, and the planner agrees.
  ProgramBuilder p("zero_inner");
  p.symbols({"N", "K"});
  p.array("A", {"N", "8"});
  p.array("B", {"N", "8"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.mapped_tasklet("t", {{"k", "0:K-1"}}, {{"a", "A", "i, k"}}, "o = a",
                   {{"o", "B", "i, k"}});
  p.end_map();
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 6}, {"K", 0}};

  const TracePlan plan = plan_trace(sdfg, binding, {});
  ASSERT_TRUE(plan.parallelizable);
  EXPECT_EQ(plan.total_events, 0);
  EXPECT_EQ(plan.total_executions, 0);
  expect_plan_matches_serial(sdfg, binding);
}

TEST(TracePlan, TriangularInnerRangeFallsBackToEnumeration) {
  // j's extent depends on the OUTER map parameter — the analytic product
  // fails and the planner enumerates outer ordinals, staying exact.
  ProgramBuilder p("triangle");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:N-1"}, {"j", "0:i"}}, {{"a", "A", "i, j"}},
                   "o = a", {{"o", "B", "i, j"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 9}};
  expect_plan_matches_serial(sdfg, binding, 4);
}

TEST(TracePlan, NestedTriangularScopesEnumerate) {
  // The nested map's extent depends on the enclosing map's parameter,
  // and its tasklet reads a range of that length: the planner counts the
  // outer map's scope by enumeration (scope_counts over the nested
  // MapEntry, tasklet_counts per point), 210 events in 45 executions at
  // N=9, on one worker and on eight.
  ProgramBuilder p("nested_triangle");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.mapped_tasklet("t", {{"j", "0:i"}}, {{"a", "A", "i, 0:j"}}, "o = a",
                   {{"o", "B", "i, j"}});
  p.end_map();
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 9}};
  const TracePlan plan = plan_trace(sdfg, binding, {});
  EXPECT_EQ(plan.total_events, 210);
  EXPECT_EQ(plan.total_executions, 45);
  expect_plan_matches_serial(sdfg, binding);
  {
    par::ThreadScope scope(8);
    expect_plan_matches_serial(sdfg, binding);
  }
}

TEST(TracePlan, CopyNodesPlanAsSerialChunks) {
  ProgramBuilder p("copy_chunks");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.array("C", {"N"});
  p.state("s");
  p.copy("A", "0:N-1", "B", "0:N-1");
  p.copy("B", "0:N-1", "C", "0:N-1");
  const ir::Sdfg sdfg = p.take();
  expect_plan_matches_serial(sdfg, {{"N", 12}});
}

TEST(TracePlan, ChunkCountTracksThreadKnob) {
  // max_chunks_per_map = 0 derives the split from the thread knob; more
  // threads must never change the PLANNED TOTALS, only the partition.
  const ir::Sdfg sdfg = workloads::matmul();
  const symbolic::SymbolMap binding = workloads::matmul_fig5();
  TracePlan narrow;
  TracePlan wide;
  {
    par::ThreadScope scope(2);
    narrow = plan_trace(sdfg, binding, {});
  }
  {
    par::ThreadScope scope(8);
    wide = plan_trace(sdfg, binding, {});
  }
  ASSERT_TRUE(narrow.parallelizable);
  ASSERT_TRUE(wide.parallelizable);
  EXPECT_EQ(narrow.total_events, wide.total_events);
  EXPECT_EQ(narrow.total_executions, wide.total_executions);
  EXPECT_GE(wide.chunks.size(), narrow.chunks.size());
}

TEST(TracePlan, UnboundSymbolYieldsSerialFallback) {
  // plan_trace never throws: an unbound extent marks the plan
  // non-parallelizable and the caller's serial engine surfaces the error.
  const ir::Sdfg sdfg = workloads::matmul();
  const TracePlan plan = plan_trace(sdfg, {{"M", 4}, {"N", 4}}, {});
  EXPECT_FALSE(plan.parallelizable);
  EXPECT_TRUE(plan.chunks.empty());
}

}  // namespace
}  // namespace dmv::sim
