#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/workloads/workloads.hpp"
#include "reference_trace.hpp"
#include "sweep_cases.hpp"

// Determinism contract of the parallel engine: the simulator must be
// BIT-IDENTICAL to the reference walk of the SDFG (reference_trace.hpp)
// and every metric pass bit-identical across thread counts — chunking,
// lane batching and expression compilation are pure performance
// changes, never numeric ones. These tests run the same inputs through
// (a) the simulator vs the reference walk at 1 and 8 threads x 1 and 8
// lanes and (b) the metric passes at 1 vs 8 threads, and require exact
// equality.

namespace dmv::sim {
namespace {

void expect_traces_identical(const AccessTrace& a, const AccessTrace& b) {
  ASSERT_EQ(a.containers, b.containers);
  ASSERT_EQ(a.executions, b.executions);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const AccessEvent& x = a.events[i];
    const AccessEvent& y = b.events[i];
    ASSERT_EQ(x.container, y.container) << "event " << i;
    ASSERT_EQ(x.flat, y.flat) << "event " << i;
    ASSERT_EQ(x.is_write, y.is_write) << "event " << i;
    ASSERT_EQ(x.execution, y.execution) << "event " << i;
    ASSERT_EQ(x.tasklet, y.tasklet) << "event " << i;
  }
}

void expect_stats_equal(const MissStats& a, const MissStats& b) {
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.hits, b.hits);
}

// simulate() against the reference walk at threads {1, 8} x lanes
// {1, 8}. `chunked` inputs are sized past the planner's chunking floor
// (8192 events), so their 8-thread runs generate chunk-parallel.
void expect_matches_reference(const ir::Sdfg& sdfg,
                              const symbolic::SymbolMap& binding,
                              bool chunked = true) {
  const AccessTrace reference = reference::reference_trace(sdfg, binding);
  if (chunked) {
    ASSERT_GE(reference.events.size(), 8192u);
  }
  for (const int threads : {1, 8}) {
    for (const int lanes : {1, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lanes=" + std::to_string(lanes));
      SimulationOptions options;
      options.lane_width = lanes;
      par::ThreadScope scope(threads);
      expect_traces_identical(reference, simulate(sdfg, binding, options));
    }
  }
}

TEST(Determinism, SimulateMatchesReferenceOnHdiff) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  expect_matches_reference(sdfg, workloads::hdiff_local(),
                           /*chunked=*/false);
  expect_matches_reference(sdfg, {{"I", 16}, {"J", 16}, {"K", 8}});
}

TEST(Determinism, SimulateMatchesReferenceOnBert) {
  expect_matches_reference(
      workloads::bert_encoder(workloads::BertStage::Fused1),
      workloads::bert_small());
}

TEST(Determinism, SimulateMatchesReferenceOnMatmul) {
  // matmul accumulates C with a Sum WCR: one write event per update.
  expect_matches_reference(workloads::matmul(),
                           {{"M", 24}, {"N", 16}, {"K", 8}});
}

TEST(Determinism, SimulateMatchesReferenceOnNestedMapReusingParameter) {
  // The inner "shadow" map rebinds the outer parameter i; the sibling
  // map after it must see the outer i again.
  builder::ProgramBuilder p("shadowed_param");
  p.symbols({"N", "M"});
  p.array("A", {"N"});
  p.array("B", {"M"});
  p.array("C", {"N", "2"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.mapped_tasklet("shadow", {{"i", "0:M-1"}}, {{"b", "B", "i"}}, "o = b",
                   {{"o", "B", "i"}});
  p.mapped_tasklet("after", {{"k", "0:1"}}, {{"a", "A", "i"}}, "o = a",
                   {{"o", "C", "i, k"}});
  p.end_map();
  expect_matches_reference(p.take(), {{"N", 64}, {"M", 80}});
}

TEST(Determinism, SimulateMatchesReferenceOnTiledMap) {
  // tile_map rewrites i and k to windows whose ranges read the tile
  // counters i_tile and k_tile, outer dimensions of the same map.
  ir::Sdfg sdfg = workloads::matmul();
  ir::State& state = sdfg.states()[0];
  ir::NodeId entry = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::MapEntry) entry = node.id;
  }
  transforms::tile_map(state, entry, "i", 3);
  transforms::tile_map(state, entry, "k", 4);
  expect_matches_reference(sdfg, {{"M", 24}, {"N", 16}, {"K", 24}});
}

TEST(Determinism, SimulateMatchesReferenceOnAccessCopies) {
  builder::ProgramBuilder p("copies");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.array("C", {"N", "N"});
  p.state("s");
  // With other_subset: rows 1..N-1 of A land one row up in B.
  p.copy("A", "1:N-1, 0:N-1", "B", "0:N-2, 0:N-1");
  ir::Sdfg sdfg = p.take();
  // Without other_subset: every other row of B, same subset in C.
  ir::State& state = sdfg.states()[0];
  ir::Memlet memlet;
  memlet.data = "B";
  memlet.subset = ir::Subset::parse("0:N-1:2, 0:N-1");
  state.add_edge(state.add_access("B"), state.add_access("C"),
                 std::move(memlet));
  expect_matches_reference(sdfg, {{"N", 96}});
}

/// The programs the trace identity tests generate: hdiff, matmul, BERT
/// and every binding of the interactive slider sweeps.
std::vector<std::pair<ir::Sdfg, symbolic::SymbolMap>> trace_cases() {
  std::vector<std::pair<ir::Sdfg, symbolic::SymbolMap>> cases;
  cases.emplace_back(workloads::hdiff(workloads::HdiffVariant::Baseline),
                     workloads::hdiff_local());
  cases.emplace_back(workloads::matmul(),
                     symbolic::SymbolMap{{"M", 12}, {"N", 10}, {"K", 8}});
  cases.emplace_back(workloads::bert_encoder(workloads::BertStage::Fused1),
                     workloads::bert_small());
  for (const sweep_cases::Sweep& sweep : sweep_cases::sweeps()) {
    for (const symbolic::SymbolMap& binding : sweep.bindings) {
      cases.emplace_back(sweep.sdfg, binding);
    }
  }
  return cases;
}

TEST(Determinism, ParallelTraceBitIdenticalAcrossThreadCounts) {
  // The tentpole contract: chunked parallel generation is a pure
  // performance change. 1 thread (serial) and 8 threads (chunked) must
  // produce byte-identical traces.
  for (const auto& [sdfg, binding] : trace_cases()) {
    AccessTrace one;
    AccessTrace eight;
    {
      par::ThreadScope scope(1);
      one = simulate(sdfg, binding);
    }
    {
      par::ThreadScope scope(8);
      eight = simulate(sdfg, binding);
    }
    expect_traces_identical(one, eight);
  }
}

TEST(Determinism, BatchedTraceBitIdenticalAcrossThreadsAndLanes) {
  // Lane batching is a pure latency knob on top of chunk parallelism:
  // every (thread count, lane width) combination must reproduce the
  // scalar serial trace byte for byte, full EventList column equality.
  for (const auto& [sdfg, binding] : trace_cases()) {
    SimulationOptions reference_options;
    reference_options.lane_width = 1;
    AccessTrace reference;
    {
      par::ThreadScope scope(1);
      reference = simulate(sdfg, binding, reference_options);
    }
    for (const int threads : {1, 8}) {
      for (const int lanes : {1, 4, 8}) {
        SimulationOptions options;
        options.lane_width = lanes;
        par::ThreadScope scope(threads);
        const AccessTrace trace = simulate(sdfg, binding, options);
        expect_traces_identical(reference, trace);
      }
    }
  }
}

TEST(Determinism, FusedPipelineBitIdenticalAcrossThreadCounts) {
  // Trace generation and every metric engine phase partition by the
  // thread knob — the whole pipeline must not depend on it.
  const ir::Sdfg sdfg =
      workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 12}, {"J", 12}, {"K", 6}};

  PipelineConfig config;
  config.miss_threshold_lines = 64;
  config.keep_distances = true;
  config.element_stats = true;
  config.cache = CacheConfig{};
  config.movement = true;

  PipelineResult serial;
  PipelineResult parallel;
  {
    par::ThreadScope scope(1);
    MetricPipeline pipeline(config);
    serial = pipeline.run(sdfg, binding);
  }
  {
    par::ThreadScope scope(8);
    MetricPipeline pipeline(config);
    parallel = pipeline.run_streaming(sdfg, binding);
  }

  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.executions, parallel.executions);
  EXPECT_EQ(serial.counts.reads, parallel.counts.reads);
  EXPECT_EQ(serial.counts.writes, parallel.counts.writes);
  EXPECT_EQ(serial.distances.distances, parallel.distances.distances);
  EXPECT_EQ(serial.misses.element_misses, parallel.misses.element_misses);
  expect_stats_equal(serial.misses.total, parallel.misses.total);
  expect_stats_equal(serial.cache.total, parallel.cache.total);
  ASSERT_EQ(serial.element_stats.size(), parallel.element_stats.size());
  for (std::size_t c = 0; c < serial.element_stats.size(); ++c) {
    EXPECT_EQ(serial.element_stats[c].min, parallel.element_stats[c].min);
    EXPECT_EQ(serial.element_stats[c].median,
              parallel.element_stats[c].median);
    EXPECT_EQ(serial.element_stats[c].max, parallel.element_stats[c].max);
    EXPECT_EQ(serial.element_stats[c].cold_count,
              parallel.element_stats[c].cold_count);
  }
  EXPECT_EQ(serial.movement.bytes_per_container,
            parallel.movement.bytes_per_container);
  EXPECT_EQ(serial.movement.total_bytes, parallel.movement.total_bytes);
}

TEST(Determinism, RelatedAccessesBitIdenticalAcrossThreadCounts) {
  const ir::Sdfg sdfg = workloads::matmul();
  const AccessTrace trace =
      simulate(sdfg, symbolic::SymbolMap{{"M", 8}, {"N", 8}, {"K", 8}});
  const std::vector<Selection> selected{{0, {0, 5, 9}}};
  AccessCounts serial;
  {
    par::ThreadScope scope(1);
    serial = related_accesses(trace, selected);
  }
  AccessCounts parallel;
  {
    par::ThreadScope scope(8);
    parallel = related_accesses(trace, selected);
  }
  EXPECT_EQ(serial.reads, parallel.reads);
  EXPECT_EQ(serial.writes, parallel.writes);
}

TEST(Determinism, ParallelTasksRethrowTheLowestIndexFailure) {
  // Which error a parallel job surfaces must not depend on timing: the
  // pool rethrows the lowest-index failure, the one the serial fallback
  // raises. Every task from 10 on throws its index, and the work before
  // the throw shrinks steeply with the index, so later throwers usually
  // fail first in time.
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    for (int run = 0; run < 50; ++run) {
      std::size_t caught = 0;
      try {
        par::parallel_tasks(64, [](std::size_t t) {
          const std::size_t spins = t >= 10 ? (64 - t) * (64 - t) * 100 : 0;
          volatile std::size_t work = 0;
          for (std::size_t i = 0; i < spins; ++i) work = work + i;
          if (t >= 10) throw t;
        });
      } catch (std::size_t index) {
        caught = index;
      }
      EXPECT_EQ(caught, 10u) << "threads " << threads << " run " << run;
    }
  }
}

}  // namespace
}  // namespace dmv::sim
