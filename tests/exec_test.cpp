#include "dmv/exec/interpreter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dmv/builder/program_builder.hpp"
#include "dmv/symbolic/expr.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::exec {
namespace {

using builder::ProgramBuilder;

// A map over `ranges` whose tasklet adds 1 to count[0], so the count
// after run() is the number of points the map visited.
ir::Sdfg counting_map(const std::vector<builder::MapRange>& ranges) {
  ProgramBuilder p("prog");
  p.array("count", {"1"});
  p.state("s");
  p.mapped_tasklet("tick", ranges, {}, "o = 1",
                   {{"o", "count", "0", ir::Wcr::Sum}});
  return p.take();
}

double run_count(const ir::Sdfg& sdfg, const symbolic::SymbolMap& env) {
  Buffers buffers(sdfg, env);
  run(sdfg, env, buffers);
  return buffers.logical("count")[0];
}

TEST(Buffers, AllocationAndAccess) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  ir::Sdfg sdfg = p.sdfg();
  Buffers buffers(sdfg, {{"N", 3}});
  EXPECT_EQ(buffers.raw("A").size(), 9u);
  const std::int64_t idx[] = {1, 2};
  buffers.at("A", idx) = 7.5;
  EXPECT_EQ(buffers.logical("A")[5], 7.5);
  EXPECT_THROW(buffers.raw("missing"), std::out_of_range);
  EXPECT_THROW(buffers.layout("missing"), std::out_of_range);
  const std::int64_t bad[] = {3, 0};
  EXPECT_THROW(buffers.at("A", bad), std::out_of_range);
}

TEST(Buffers, PaddedStridesAllocateHoles) {
  ProgramBuilder p("prog");
  p.array("A", {"4", "12"});
  p.sdfg().array("A").strides = {symbolic::Expr(16), symbolic::Expr(1)};
  ir::Sdfg sdfg = p.sdfg();
  Buffers buffers(sdfg, {});
  EXPECT_EQ(buffers.raw("A").size(), 3u * 16 + 12);
  // Logical view skips the holes.
  std::vector<double> values(48);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  buffers.set_logical("A", values);
  EXPECT_EQ(buffers.logical("A"), values);
  const std::int64_t idx[] = {1, 0};
  EXPECT_EQ(buffers.at("A", idx), 12.0);
  EXPECT_EQ(buffers.raw("A")[16], 12.0);
}

TEST(Buffers, SetLogicalSizeMismatch) {
  ProgramBuilder p("prog");
  p.array("A", {"4"});
  ir::Sdfg sdfg = p.sdfg();
  Buffers buffers(sdfg, {});
  EXPECT_THROW(buffers.set_logical("A", {1.0, 2.0}),
               std::invalid_argument);
}

TEST(Interpreter, OuterProductMatchesManual) {
  ir::Sdfg sdfg = workloads::outer_product();
  symbolic::SymbolMap env = workloads::outer_product_fig3();
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {1, 2, 3});
  buffers.set_logical("B", {10, 20, 30, 40});
  run(sdfg, env, buffers);
  std::vector<double> c = buffers.logical("C");
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(c[i * 4 + j], (i + 1) * 10.0 * (j + 1));
    }
  }
}

TEST(Interpreter, MatmulWithWcrSum) {
  ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap env{{"M", 2}, {"K", 3}, {"N", 2}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {1, 2, 3, 4, 5, 6});
  buffers.set_logical("B", {1, 0, 0, 1, 1, 1});
  run(sdfg, env, buffers);
  std::vector<double> c = buffers.logical("C");
  // A = [[1,2,3],[4,5,6]], B = [[1,0],[0,1],[1,1]] -> C = [[4,5],[10,11]].
  EXPECT_EQ(c, (std::vector<double>{4, 5, 10, 11}));
}

TEST(Interpreter, ColumnMajorBGivesSameResult) {
  symbolic::SymbolMap env{{"M", 2}, {"K", 3}, {"N", 2}};
  auto run_matmul = [&](bool column_major) {
    ir::Sdfg sdfg = workloads::matmul(column_major);
    Buffers buffers(sdfg, env);
    buffers.set_logical("A", {1, 2, 3, 4, 5, 6});
    buffers.set_logical("B", {1, 0, 0, 1, 1, 1});
    run(sdfg, env, buffers);
    return buffers.logical("C");
  };
  EXPECT_EQ(run_matmul(true), run_matmul(false));
}

TEST(Interpreter, WcrMinMax) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("lo", {"1"});
  p.array("hi", {"1"});
  p.state("s");
  p.mapped_tasklet("minmax", {{"i", "0:N-1"}}, {{"v", "A", "i"}},
                   "a = v; b = v", {{"a", "lo", "0", ir::Wcr::Min},
                                    {"b", "hi", "0", ir::Wcr::Max}});
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"N", 4}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {3, -7, 5, 2});
  run(sdfg, env, buffers);
  // Buffers start at zero, so min(-7, 0) and max(5, 0).
  EXPECT_EQ(buffers.logical("lo")[0], -7);
  EXPECT_EQ(buffers.logical("hi")[0], 5);
}

TEST(Interpreter, ChainedTaskletsPassWires) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  builder::ChainStage s1{"sq", {{"v", "A", "i"}}, {}, "t = v * v", {}, {"t"}};
  builder::ChainStage s2{
      "inc", {}, {"t"}, "o = t + 1", {{"o", "B", "i"}}, {}};
  p.mapped_chain("fused", {{"i", "0:N-1"}}, {s1, s2});
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"N", 3}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {2, 3, 4});
  run(sdfg, env, buffers);
  EXPECT_EQ(buffers.logical("B"), (std::vector<double>{5, 10, 17}));
}

TEST(Interpreter, SymbolsVisibleInTasklets) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  // Reads both the map parameter i and the symbol N.
  p.mapped_tasklet("affine", {{"i", "0:N-1"}}, {{"v", "A", "i"}},
                   "o = v + i * N", {{"o", "B", "i"}});
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"N", 4}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {1, 1, 1, 1});
  run(sdfg, env, buffers);
  EXPECT_EQ(buffers.logical("B"), (std::vector<double>{1, 5, 9, 13}));
}

TEST(Interpreter, CopyEdges) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.state("s");
  // Copy A's first row into B's first column.
  p.copy("A", "0, 0:N-1", "B", "0:N-1, 0");
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"N", 3}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {1, 2, 3, 4, 5, 6, 7, 8, 9});
  run(sdfg, env, buffers);
  std::vector<double> b = buffers.logical("B");
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[3], 2);
  EXPECT_EQ(b[6], 3);
}

TEST(Interpreter, MultiStateExecutesInOrder) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.transient("T", {"N"});
  p.array("B", {"N"});
  p.state("first");
  p.mapped_tasklet("inc", {{"i", "0:N-1"}}, {{"v", "A", "i"}}, "o = v + 1",
                   {{"o", "T", "i"}});
  p.state("second");
  p.mapped_tasklet("dbl", {{"i", "0:N-1"}}, {{"v", "T", "i"}}, "o = v * 2",
                   {{"o", "B", "i"}});
  ir::Sdfg sdfg = p.take();
  symbolic::SymbolMap env{{"N", 3}};
  Buffers buffers(sdfg, env);
  buffers.set_logical("A", {1, 2, 3});
  run(sdfg, env, buffers);
  EXPECT_EQ(buffers.logical("B"), (std::vector<double>{4, 6, 8}));
}

TEST(Interpreter, RejectsRangeMemletOnTasklet) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  p.mapped_tasklet("bad", {{"i", "0:N-1"}}, {{"v", "A", "0:N-1"}}, "o = v",
                   {{"o", "B", "i"}});
  ir::Sdfg sdfg = p.take();
  Buffers buffers(sdfg, {{"N", 3}});
  EXPECT_THROW(run(sdfg, {{"N", 3}}, buffers), std::invalid_argument);
}

TEST(Interpreter, MissingConnectorThrows) {
  ProgramBuilder p("prog");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  // Tasklet writes "o" but the output edge expects "wrong".
  p.mapped_tasklet("typo", {{"i", "0:N-1"}}, {{"v", "A", "i"}}, "o = v",
                   {{"wrong", "B", "i"}});
  ir::Sdfg sdfg = p.take();
  Buffers buffers(sdfg, {{"N", 3}});
  EXPECT_THROW(run(sdfg, {{"N", 3}}, buffers), std::logic_error);
}

TEST(Interpreter, StridedRangeRunsEveryStep) {
  const ir::Sdfg sdfg = counting_map({{"i", "0:N-1"}, {"j", "0:9:2"}});
  EXPECT_EQ(run_count(sdfg, {{"N", 4}}), 4 * 5);
}

TEST(Interpreter, TriangularMapRunsEveryPoint) {
  // j in [0, i]: the inner bound reads the outer parameter.
  const ir::Sdfg sdfg = counting_map({{"i", "0:3"}, {"j", "0:i"}});
  EXPECT_EQ(run_count(sdfg, {}), 1 + 2 + 3 + 4);
}

TEST(Interpreter, EmptyRangeRunsNothing) {
  EXPECT_EQ(run_count(counting_map({{"i", "0:-1"}}), {}), 0);
}

TEST(Interpreter, RejectsZeroStep) {
  EXPECT_THROW(run_count(counting_map({{"i", "0:4:0"}}), {}),
               std::invalid_argument);
}

TEST(Interpreter, BoundCannotReadItsOwnOrAnInnerParameter) {
  // The map owns its parameter names: an enclosing binding of the same
  // name is not visible to the map's own bounds.
  EXPECT_THROW(run_count(counting_map({{"i", "0:i"}}), {{"i", 3}}),
               symbolic::UnboundSymbolError);
  EXPECT_THROW(
      run_count(counting_map({{"i", "0:j"}, {"j", "0:3"}}), {{"j", 2}}),
      symbolic::UnboundSymbolError);
}

TEST(Interpreter, LastWriteWinsInLexicographicOrder) {
  // Every point of a 2x3 map overwrites out[0]; the last point visited,
  // outer parameter slowest, is (1, 2).
  ProgramBuilder p("prog");
  p.array("out", {"1"});
  p.state("s");
  p.mapped_tasklet("last", {{"i", "0:1"}, {"j", "0:2"}}, {},
                   "o = i * 10 + j", {{"o", "out", "0"}});
  const ir::Sdfg sdfg = p.take();
  Buffers buffers(sdfg, {});
  run(sdfg, {}, buffers);
  EXPECT_EQ(buffers.logical("out")[0], 12);
}

TEST(Interpreter, HdiffMatchesNativeKernel) {
  // The IR stencil and the native fused kernel implement the same math.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const std::int64_t I = 6, J = 7, K = 3;
  symbolic::SymbolMap env{{"I", I}, {"J", J}, {"K", K}};

  workloads::kernels::HdiffData data =
      workloads::kernels::make_hdiff_data(I, J, K);
  workloads::kernels::hdiff_fused(data);

  Buffers buffers(sdfg, env);
  buffers.set_logical("in_field", data.in_field);
  buffers.set_logical("coeff", data.coeff);
  run(sdfg, env, buffers);
  std::vector<double> out = buffers.logical("out_field");
  ASSERT_EQ(out.size(), data.out_field.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], data.out_field[i], 1e-12) << "at " << i;
  }
}

}  // namespace
}  // namespace dmv::exec
