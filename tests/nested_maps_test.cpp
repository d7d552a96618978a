// Nested map scopes: builder construction (begin_map / end_map), and
// the full stack — validation, analysis, simulation, interpretation,
// rendering — over hierarchical SDFGs.

#include <gtest/gtest.h>

#include <random>

#include "dmv/analysis/analysis.hpp"
#include "dmv/builder/program_builder.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::builder {
namespace {

// GEMM as maps-within-maps: an (i, j) map around a k-reduction map.
ir::Sdfg nested_matmul() {
  ProgramBuilder p("nested_matmul");
  p.symbols({"M", "K", "N"});
  p.array("A", {"M", "K"});
  p.array("B", {"K", "N"});
  p.array("C", {"M", "N"});
  p.state("compute");
  p.begin_map("rows_cols", {{"i", "0:M-1"}, {"j", "0:N-1"}});
  p.mapped_tasklet("reduce_k", {{"k", "0:K-1"}},
                   {{"a", "A", "i, k"}, {"b", "B", "k, j"}}, "o = a * b",
                   {{"o", "C", "i, j", ir::Wcr::Sum}});
  p.end_map();
  return p.take();
}

TEST(NestedMaps, StructureAndValidation) {
  ir::Sdfg sdfg = nested_matmul();
  EXPECT_TRUE(ir::validate(sdfg).empty());
  const ir::State& state = sdfg.states()[0];
  // Inner entry lives in the outer entry's scope.
  ir::NodeId outer = ir::kNoNode, inner = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind != ir::NodeKind::MapEntry) continue;
    if (node.scope_parent == ir::kNoNode) {
      outer = node.id;
    } else {
      inner = node.id;
    }
  }
  ASSERT_NE(outer, ir::kNoNode);
  ASSERT_NE(inner, ir::kNoNode);
  EXPECT_EQ(state.node(inner).scope_parent, outer);
  // The tasklet sits two scopes deep.
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::Tasklet) {
      EXPECT_EQ(state.scope_depth(node.id), 2);
    }
  }
}

TEST(NestedMaps, MemletPropagationPerLevel) {
  ir::Sdfg sdfg = nested_matmul();
  const ir::State& state = sdfg.states()[0];
  symbolic::SymbolMap env{{"M", 3}, {"K", 4}, {"N", 5}};
  // The access -> outer-entry edge for A covers the whole array; the
  // outer-entry -> inner-entry edge covers one row (i fixed, k widened);
  // the inner edge is a single element.
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.data != "A") continue;
    const ir::Node& src = state.node(edge.src);
    const ir::Node& dst = state.node(edge.dst);
    const std::int64_t footprint = [&] {
      // Bind map params to begins for single-element checks.
      symbolic::SymbolMap bound = env;
      bound["i"] = 0;
      bound["j"] = 0;
      bound["k"] = 0;
      return edge.memlet.subset.num_elements().evaluate(bound);
    }();
    if (src.kind == ir::NodeKind::Access) {
      EXPECT_EQ(footprint, 3 * 4);  // Whole A.
    } else if (dst.kind == ir::NodeKind::Tasklet) {
      EXPECT_EQ(footprint, 1);
    } else {
      EXPECT_EQ(footprint, 4);  // One row of A (k widened, i fixed).
    }
  }
}

TEST(NestedMaps, InterpreterMatchesFlatMatmul) {
  symbolic::SymbolMap env{{"M", 5}, {"K", 7}, {"N", 4}};
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> value(-1, 1);
  std::vector<double> a(5 * 7), b(7 * 4);
  for (auto& x : a) x = value(rng);
  for (auto& x : b) x = value(rng);

  auto run = [&](ir::Sdfg& sdfg) {
    exec::Buffers buffers(sdfg, env);
    buffers.set_logical("A", a);
    buffers.set_logical("B", b);
    exec::run(sdfg, env, buffers);
    return buffers.logical("C");
  };
  ir::Sdfg nested = nested_matmul();
  ir::Sdfg flat = workloads::matmul(/*b_column_major=*/false);
  EXPECT_EQ(run(nested), run(flat));
}

TEST(NestedMaps, SimulationEventMultisetMatchesFlat) {
  symbolic::SymbolMap env{{"M", 4}, {"K", 3}, {"N", 5}};
  ir::Sdfg nested = nested_matmul();
  ir::Sdfg flat = workloads::matmul(/*b_column_major=*/false);
  sim::AccessTrace nested_trace = sim::simulate(nested, env);
  sim::AccessTrace flat_trace = sim::simulate(flat, env);
  EXPECT_EQ(nested_trace.events.size(), flat_trace.events.size());
  sim::MetricPipeline counts_only;
  sim::AccessCounts nested_counts = counts_only.run(nested_trace).counts;
  sim::AccessCounts flat_counts = counts_only.run(flat_trace).counts;
  for (const char* name : {"A", "B", "C"}) {
    const int nc = nested_trace.container_id(name);
    const int fc = flat_trace.container_id(name);
    EXPECT_EQ(nested_counts.reads[nc], flat_counts.reads[fc]) << name;
    EXPECT_EQ(nested_counts.writes[nc], flat_counts.writes[fc]) << name;
  }
}

TEST(NestedMaps, VolumeAnalysisCountsEveryLevel) {
  ir::Sdfg sdfg = nested_matmul();
  symbolic::SymbolMap env{{"M", 3}, {"K", 4}, {"N", 5}};
  // Tasklet-adjacent traffic is identical to the flat formulation:
  // 3 events per (i, j, k).
  const ir::State& state = sdfg.states()[0];
  std::int64_t tasklet_adjacent = 0;
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    if (state.node(edge.src).kind == ir::NodeKind::Tasklet ||
        state.node(edge.dst).kind == ir::NodeKind::Tasklet) {
      tasklet_adjacent +=
          analysis::total_edge_elements(state, edge).evaluate(env);
    }
  }
  EXPECT_EQ(tasklet_adjacent, 3 * 3 * 4 * 5);
  EXPECT_EQ(analysis::total_operations(sdfg).evaluate(env), 3 * 4 * 5);
}

TEST(NestedMaps, DeepNesting) {
  ProgramBuilder p("deep");
  p.symbols({"N"});
  p.array("A", {"N", "N", "N"});
  p.array("B", {"N", "N", "N"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.begin_map("middle", {{"j", "0:N-1"}});
  p.mapped_tasklet("inner", {{"k", "0:N-1"}}, {{"v", "A", "i, j, k"}},
                   "o = v + 1", {{"o", "B", "i, j, k"}});
  p.end_map();
  p.end_map();
  ir::Sdfg sdfg = p.take();
  EXPECT_TRUE(ir::validate(sdfg).empty());

  symbolic::SymbolMap env{{"N", 3}};
  exec::Buffers buffers(sdfg, env);
  std::vector<double> a(27);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  buffers.set_logical("A", a);
  exec::run(sdfg, env, buffers);
  std::vector<double> b = buffers.logical("B");
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(b[i], a[i] + 1);
  }

  // The outline reflects three nesting levels.
  std::string text = viz::outline(sdfg);
  EXPECT_NE(text.find("<map> outer"), std::string::npos);
  EXPECT_NE(text.find("      <map> middle"), std::string::npos);
}

TEST(NestedMaps, JsonRoundTripPreservesScopes) {
  ir::Sdfg original = nested_matmul();
  ir::Sdfg restored = ir::from_json(ir::to_json(original));
  EXPECT_TRUE(ir::validate(restored).empty());
  symbolic::SymbolMap env{{"M", 2}, {"K", 2}, {"N", 2}};
  sim::AccessTrace a = sim::simulate(original, env);
  sim::AccessTrace b = sim::simulate(restored, env);
  ASSERT_EQ(a.events.size(), b.events.size());
}

TEST(NestedMaps, ScopeDiscipline) {
  ProgramBuilder p("bad");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.state("s");
  EXPECT_THROW(p.end_map(), std::logic_error);
  p.begin_map("open", {{"i", "0:N-1"}});
  EXPECT_THROW(p.take(), std::logic_error);
  EXPECT_THROW(p.state("another"), std::logic_error);
  p.end_map();
}

TEST(NestedMaps, RenderingHandlesHierarchy) {
  ir::Sdfg sdfg = nested_matmul();
  std::string svg = viz::render_state_svg(sdfg.states()[0]);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Collapsing the OUTER map hides the inner one entirely.
  for (ir::Node& node : sdfg.states()[0].mutable_nodes()) {
    if (node.kind == ir::NodeKind::MapEntry &&
        node.scope_parent == ir::kNoNode) {
      node.map.collapsed = true;
    }
  }
  viz::StateLayout layout = viz::layout_state(sdfg.states()[0]);
  for (const viz::NodeBox& box : layout.nodes) {
    const ir::Node& node = sdfg.states()[0].node(box.id);
    EXPECT_TRUE(node.scope_parent == ir::kNoNode ||
                node.kind == ir::NodeKind::MapEntry);
  }
}

}  // namespace
}  // namespace dmv::builder
