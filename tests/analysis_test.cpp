#include "dmv/analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dmv/builder/program_builder.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::analysis {
namespace {

using builder::ProgramBuilder;

ir::Sdfg elementwise() {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  p.mapped_tasklet("double", {{"i", "0:N-1"}}, {{"v", "A", "i"}},
                   "o = v * 2 + 1", {{"o", "B", "i"}});
  return p.take();
}

TEST(Volume, ElementwiseMapMovesNElementsPerSide) {
  ir::Sdfg sdfg = elementwise();
  std::vector<EdgeVolume> volumes = edge_volumes(sdfg);
  ASSERT_EQ(volumes.size(), 4u);
  for (const EdgeVolume& volume : volumes) {
    EXPECT_EQ(volume.elements.evaluate({{"N", 10}}), 10)
        << volume.data << " edge";
    EXPECT_EQ(volume.bytes.evaluate({{"N", 10}}), 80);
  }
  // Total: N elements over each of the 4 edges (2 per side).
  EXPECT_EQ(total_movement_bytes(sdfg).evaluate({{"N", 10}}), 320);
}

TEST(Volume, MatmulDistinguishesTrafficFromFootprint) {
  ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap env{{"M", 4}, {"K", 5}, {"N", 6}};
  const ir::State& state = sdfg.states()[0];
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    const ir::Node& src = state.node(edge.src);
    const ir::Node& dst = state.node(edge.dst);
    const std::int64_t total =
        total_edge_elements(state, edge).evaluate(env);
    if (src.kind == ir::NodeKind::Tasklet ||
        dst.kind == ir::NodeKind::Tasklet) {
      // Inner edges: one element per (i,j,k) iteration = traffic.
      EXPECT_EQ(total, 4 * 5 * 6);
    } else {
      // Boundary edges: the container footprint (A: M*K, B: K*N, C: M*N).
      const std::string& data = edge.memlet.data;
      const std::int64_t expected =
          data == "A" ? 4 * 5 : (data == "B" ? 5 * 6 : 4 * 6);
      EXPECT_EQ(total, expected) << data;
    }
  }
}

TEST(Volume, EdgeScopeAndIterations) {
  ir::Sdfg sdfg = elementwise();
  const ir::State& state = sdfg.states()[0];
  for (const ir::Edge& edge : state.edges()) {
    const ir::NodeId scope = edge_scope(state, edge);
    const ir::Node& src = state.node(edge.src);
    if (src.kind == ir::NodeKind::Access ||
        src.kind == ir::NodeKind::MapExit) {
      EXPECT_EQ(scope, ir::kNoNode);
      EXPECT_EQ(scope_iterations(state, scope).evaluate({{"N", 9}}), 1);
    } else {
      EXPECT_NE(scope, ir::kNoNode);
      EXPECT_EQ(scope_iterations(state, scope).evaluate({{"N", 9}}), 9);
    }
  }
}

TEST(Flops, CountsScaleWithIterations) {
  ir::Sdfg sdfg = elementwise();
  // "o = v * 2 + 1": one mul + one add per iteration.
  EXPECT_EQ(total_operations(sdfg).evaluate({{"N", 10}}), 20);
  std::vector<NodeOps> ops = tasklet_operation_counts(sdfg);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].label, "double");
}

TEST(Flops, MatmulIsTwoFlopsPerInnerIteration) {
  ir::Sdfg sdfg = workloads::matmul();
  // One multiply per (i,j,k); the WCR add is modeled by the reduction.
  EXPECT_EQ(total_operations(sdfg).evaluate({{"M", 4}, {"K", 5}, {"N", 6}}),
            4 * 5 * 6);
}

TEST(Intensity, ElementwiseIsLow) {
  ir::Sdfg sdfg = elementwise();
  std::vector<MapIntensity> intensities =
      map_intensities(sdfg, {{"N", 64}});
  ASSERT_EQ(intensities.size(), 1u);
  // 2 ops vs 16 boundary bytes per element.
  EXPECT_DOUBLE_EQ(intensities[0].intensity, 2.0 / 16.0);
}

TEST(Intensity, MatmulGrowsWithK) {
  ir::Sdfg small = workloads::matmul();
  const ir::State& state = small.states()[0];
  ir::NodeId entry = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::MapEntry) entry = node.id;
  }
  ASSERT_NE(entry, ir::kNoNode);
  const double at_small = map_arithmetic_intensity(
      small, state, entry, {{"M", 8}, {"N", 8}, {"K", 8}});
  const double at_large = map_arithmetic_intensity(
      small, state, entry, {{"M", 8}, {"N", 8}, {"K", 64}});
  EXPECT_GT(at_large, at_small);
}

TEST(Intensity, RejectsNonMapNode) {
  ir::Sdfg sdfg = elementwise();
  const ir::State& state = sdfg.states()[0];
  ir::NodeId tasklet = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::Tasklet) tasklet = node.id;
  }
  ASSERT_NE(tasklet, ir::kNoNode);
  EXPECT_THROW(
      map_arithmetic_intensity(sdfg, state, tasklet, {{"N", 4}}),
      std::invalid_argument);
}

TEST(RankedEdges, SortedDescending) {
  ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Baseline);
  std::vector<RankedEdge> ranked =
      rank_edges_by_volume(sdfg, workloads::bert_small());
  ASSERT_GT(ranked.size(), 10u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].bytes, ranked[i].bytes);
  }
}

TEST(Diff, FusionShowsEliminatedContainers) {
  ir::Sdfg before = workloads::bert_encoder(workloads::BertStage::Baseline);
  ir::Sdfg after = workloads::bert_encoder(workloads::BertStage::Fused2);
  MovementDiff diff =
      diff_movement(before, after, workloads::bert_small());
  EXPECT_LT(diff.after_total, diff.before_total);
  // The fused transients appear with zero traffic on the after side.
  bool found_eliminated = false;
  for (const ContainerDelta& delta : diff.containers) {
    if (delta.data == "D") {
      EXPECT_GT(delta.before_bytes, 0);
      EXPECT_EQ(delta.after_bytes, 0);
      found_eliminated = true;
    }
  }
  EXPECT_TRUE(found_eliminated);
  // Sorted by absolute delta, descending.
  for (std::size_t i = 1; i < diff.containers.size(); ++i) {
    EXPECT_GE(std::abs(diff.containers[i - 1].delta()),
              std::abs(diff.containers[i].delta()));
  }
}

TEST(Diff, IdenticalProgramsShowNoDelta) {
  ir::Sdfg program = workloads::matmul();
  MovementDiff diff =
      diff_movement(program, program, workloads::matmul_fig5());
  EXPECT_EQ(diff.before_total, diff.after_total);
  for (const ContainerDelta& delta : diff.containers) {
    EXPECT_EQ(delta.delta(), 0);
  }
}

TEST(Scaling, DetectsPolynomialDegrees) {
  // metric = N^2 * M: exponent 2 in N, 1 in M.
  symbolic::Expr metric = symbolic::Expr::symbol("N") *
                          symbolic::Expr::symbol("N") *
                          symbolic::Expr::symbol("M");
  auto result = scaling_exponents(metric, {{"N", 8}, {"M", 8}});
  ASSERT_EQ(result.size(), 2u);
  for (const SymbolScaling& s : result) {
    if (s.symbol == "N") {
      EXPECT_NEAR(s.exponent, 2.0, 1e-9);
    }
    if (s.symbol == "M") {
      EXPECT_NEAR(s.exponent, 1.0, 1e-9);
    }
  }
}

TEST(Scaling, MatmulMovementDegrees) {
  ir::Sdfg sdfg = workloads::matmul();
  auto result = movement_scaling(sdfg, {{"M", 8}, {"N", 8}, {"K", 8}});
  for (const SymbolScaling& s : result) {
    // Inner traffic M*N*K dominates: every symbol is (close to) linear.
    EXPECT_NEAR(s.exponent, 1.0, 0.15) << s.symbol;
  }
}

TEST(Scaling, RejectsBadFactor) {
  EXPECT_THROW(
      scaling_exponents(symbolic::Expr::symbol("N"), {{"N", 4}}, 1),
      std::invalid_argument);
}

TEST(Scaling, RejectsMissingBaseSymbol) {
  EXPECT_THROW(scaling_exponents(symbolic::Expr::symbol("N"), {{"M", 4}}),
               std::invalid_argument);
}

TEST(Scaling, BertDominantParameters) {
  // §IV-D slider analysis at the BERT-LARGE operating point: the
  // sequence length SM is the only superlinear parameter (the SM^2
  // attention traffic), while emb and B stay (sub)linear.
  ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Baseline);
  auto result = movement_scaling(sdfg, workloads::bert_large());
  double sm_exponent = 0, emb_exponent = 0, b_exponent = 0;
  for (const SymbolScaling& s : result) {
    if (s.symbol == "SM") sm_exponent = s.exponent;
    if (s.symbol == "emb") emb_exponent = s.exponent;
    if (s.symbol == "B") b_exponent = s.exponent;
  }
  EXPECT_GT(sm_exponent, 1.05);
  EXPECT_GT(sm_exponent, emb_exponent);
  EXPECT_LE(emb_exponent, 1.0 + 1e-9);
  EXPECT_NEAR(b_exponent, 1.0, 0.05);
}

}  // namespace
}  // namespace dmv::analysis
