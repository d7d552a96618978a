#include <gtest/gtest.h>

#include <random>

#include "dmv/analysis/analysis.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::transforms {
namespace {

ir::NodeId find_map(const ir::State& state) {
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::MapEntry) return node.id;
  }
  return ir::kNoNode;
}

TEST(Tiling, SplitsTheParameter) {
  ir::Sdfg sdfg = workloads::matmul();
  ir::State& state = sdfg.states()[0];
  const ir::NodeId entry = find_map(state);
  tile_map(state, entry, "k", 5);
  const ir::MapInfo& map = state.node(entry).map;
  ASSERT_EQ(map.params.size(), 4u);
  EXPECT_EQ(map.params[0], "k_tile");
  EXPECT_EQ(map.params[3], "k");
  // Tile counter range: [0, K/5 - 1].
  EXPECT_EQ(map.ranges[0].end.evaluate({{"K", 10}}), 1);
  // Inner window size stays the tile size, independent of k_tile.
  symbolic::Expr size = map.ranges[3].end - map.ranges[3].begin + 1;
  EXPECT_TRUE(size.is_constant(5)) << size.to_string();
}

TEST(Tiling, TiledMapHasTheOriginalExecutions) {
  // The tiled map visits every point of the original once.
  symbolic::SymbolMap env{{"M", 4}, {"K", 2}, {"N", 9}};
  ir::Sdfg plain = workloads::matmul();
  ir::Sdfg tiled = workloads::matmul();
  ir::State& state = tiled.states()[0];
  tile_map(state, find_map(state), "j", 3);
  const std::int64_t executions = sim::simulate(plain, env).executions;
  EXPECT_EQ(executions, 4 * 2 * 9);
  EXPECT_EQ(sim::simulate(tiled, env).executions, executions);
}

TEST(Tiling, PreservesSemantics) {
  symbolic::SymbolMap env{{"M", 6}, {"K", 8}, {"N", 4}};
  auto run_matmul = [&](bool tiled) {
    ir::Sdfg sdfg = workloads::matmul();
    if (tiled) {
      ir::State& state = sdfg.states()[0];
      tile_map(state, find_map(state), "i", 3);
      tile_map(state, find_map(state), "k", 4);
    }
    exec::Buffers buffers(sdfg, env);
    std::vector<double> a(6 * 8), b(8 * 4);
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> value(-1, 1);
    for (auto& x : a) x = value(rng);
    for (auto& x : b) x = value(rng);
    buffers.set_logical("A", a);
    buffers.set_logical("B", b);
    exec::run(sdfg, env, buffers);
    return buffers.logical("C");
  };
  EXPECT_EQ(run_matmul(false), run_matmul(true));
}

TEST(Tiling, SimulationAccessCountsUnchanged) {
  // Tiling permutes the iteration ORDER; the multiset of accesses stays
  // identical, so flattened counts match element-wise.
  symbolic::SymbolMap env{{"M", 8}, {"K", 8}, {"N", 8}};
  ir::Sdfg plain = workloads::matmul();
  ir::Sdfg tiled = workloads::matmul();
  tile_map(tiled.states()[0], find_map(tiled.states()[0]), "j", 4);
  sim::AccessTrace plain_trace = sim::simulate(plain, env);
  sim::AccessTrace tiled_trace = sim::simulate(tiled, env);
  sim::MetricPipeline counts_only;
  sim::AccessCounts plain_counts = counts_only.run(plain_trace).counts;
  sim::AccessCounts tiled_counts = counts_only.run(tiled_trace).counts;
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(plain_counts.reads[c], tiled_counts.reads[c]);
    EXPECT_EQ(plain_counts.writes[c], tiled_counts.writes[c]);
  }
}

TEST(Tiling, ImprovesReuseOnMatmul) {
  // The optimization the paper's related-access view motivates (§V-C):
  // tiling j and k shortens B's reuse distances, cutting misses.
  symbolic::SymbolMap env{{"M", 24}, {"K", 24}, {"N", 24}};
  auto misses = [&](bool tiled) {
    ir::Sdfg sdfg = workloads::matmul(/*b_column_major=*/false);
    if (tiled) {
      ir::State& state = sdfg.states()[0];
      tile_map(state, find_map(state), "i", 6);
      tile_map(state, find_map(state), "j", 6);
      tile_map(state, find_map(state), "k", 6);
    }
    return sim::MetricPipeline(sim::PipelineConfig{.line_size = 64,
                                                   .counts = false,
                                                   .miss_threshold_lines = 16})
        .run(sim::simulate(sdfg, env))
        .misses.total.misses();
  };
  EXPECT_LT(misses(true), misses(false));
}

TEST(Tiling, VolumeAnalysisStillEvaluates) {
  // scope_iterations over a tiled map: the window size is constant, so
  // the symbolic product still evaluates (extent = tiles x tile size).
  ir::Sdfg sdfg = workloads::matmul();
  ir::State& state = sdfg.states()[0];
  tile_map(state, find_map(state), "i", 4);
  symbolic::SymbolMap env{{"M", 8}, {"K", 3}, {"N", 5}};
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    EXPECT_NO_THROW(
        (void)analysis::total_edge_elements(state, edge).evaluate(env));
  }
}

TEST(Tiling, ArgumentChecks) {
  ir::Sdfg sdfg = workloads::matmul();
  ir::State& state = sdfg.states()[0];
  const ir::NodeId entry = find_map(state);
  EXPECT_THROW(tile_map(state, entry, "i", 0), std::invalid_argument);
  EXPECT_THROW(tile_map(state, entry, "ghost", 4), std::invalid_argument);
  // Non-map node.
  ir::NodeId access = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::Access) access = node.id;
  }
  EXPECT_THROW(tile_map(state, access, "i", 4), std::invalid_argument);
  // Constant extent not divisible.
  ir::Sdfg fixed = workloads::outer_product();
  ir::State& fixed_state = fixed.states()[0];
  ir::Node& map_node = fixed_state.node(find_map(fixed_state));
  map_node.map.ranges[0] = ir::Range{0, 9, 1};  // Extent 10.
  EXPECT_THROW(tile_map(fixed_state, map_node.id, "i", 3),
               std::invalid_argument);
  // Double tiling the same parameter name collides.
  tile_map(state, entry, "i", 4);
  EXPECT_THROW(tile_map(state, entry, "i", 2), std::invalid_argument);
}

}  // namespace
}  // namespace dmv::transforms
