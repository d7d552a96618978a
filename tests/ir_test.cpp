#include <gtest/gtest.h>

#include "dmv/ir/data.hpp"
#include "dmv/ir/graph.hpp"
#include "dmv/ir/memlet.hpp"
#include "dmv/ir/sdfg.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/symbolic/parser.hpp"

namespace dmv::ir {
namespace {

using symbolic::Expr;

TEST(DataDescriptor, RowMajorStrides) {
  auto d = DataDescriptor::array("A", {Expr(3), Expr(4), Expr(5)});
  EXPECT_EQ(d.strides[0].constant_value(), 20);
  EXPECT_EQ(d.strides[1].constant_value(), 5);
  EXPECT_EQ(d.strides[2].constant_value(), 1);
  EXPECT_EQ(d.total_elements().constant_value(), 60);
  EXPECT_EQ(d.logical_bytes().constant_value(), 480);
  EXPECT_EQ(d.allocated_elements().constant_value(), 60);
}

TEST(DataDescriptor, ColumnMajorStrides) {
  std::vector<Expr> shape{Expr(3), Expr(4)};
  auto strides = DataDescriptor::column_major_strides(shape);
  EXPECT_EQ(strides[0].constant_value(), 1);
  EXPECT_EQ(strides[1].constant_value(), 3);
}

TEST(DataDescriptor, SymbolicShapes) {
  auto d = DataDescriptor::array(
      "in_field", {symbolic::parse("I + 4"), symbolic::parse("J + 4"),
                   symbolic::parse("K")});
  symbolic::SymbolMap env{{"I", 8}, {"J", 8}, {"K", 5}};
  EXPECT_EQ(d.total_elements().evaluate(env), 12 * 12 * 5);
  EXPECT_EQ(d.strides[0].evaluate(env), 60);
}

TEST(DataDescriptor, PaddedAllocationExceedsLogical) {
  auto d = DataDescriptor::array("A", {Expr(4), Expr(12)});
  d.strides = {Expr(16), Expr(1)};  // Rows padded 12 -> 16.
  EXPECT_EQ(d.total_elements().constant_value(), 48);
  EXPECT_EQ(d.allocated_elements().constant_value(), 3 * 16 + 11 + 1);
}

TEST(DataDescriptor, ElementOffset) {
  auto d = DataDescriptor::array("A", {Expr(3), Expr(4)});
  EXPECT_EQ(d.element_offset({Expr(2), Expr(3)}).constant_value(), 11);
  EXPECT_THROW(d.element_offset({Expr(1)}), std::invalid_argument);
}

TEST(DataDescriptor, Scalar) {
  auto s = DataDescriptor::scalar("tmp");
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.total_elements().constant_value(), 1);
  EXPECT_TRUE(s.transient);
}

TEST(Range, SizeAndSingleElement) {
  Range r{symbolic::parse("0"), symbolic::parse("N-1"), Expr(1)};
  EXPECT_EQ(r.size().evaluate({{"N", 7}}), 7);
  EXPECT_FALSE(r.is_single_element());
  EXPECT_TRUE(Range::index(symbolic::parse("i+1")).is_single_element());
  Range stepped{Expr(0), Expr(9), Expr(2)};
  EXPECT_EQ(stepped.size().constant_value(), 5);
}

TEST(Subset, ParseForms) {
  Subset s = Subset::parse("i, 0:N-1, 2*j+1, 0:9:3");
  ASSERT_EQ(s.rank(), 4);
  EXPECT_TRUE(s.ranges[0].is_single_element());
  EXPECT_EQ(s.ranges[1].size().evaluate({{"N", 4}}), 4);
  EXPECT_EQ(s.ranges[3].size().constant_value(), 4);
  EXPECT_EQ(s.num_elements().evaluate({{"N", 4}}), 16);
}

TEST(Subset, ParseHandlesNestedParens) {
  Subset s = Subset::parse("min(i, j), (a+b):(a+b+3)");
  ASSERT_EQ(s.rank(), 2);
  EXPECT_EQ(s.ranges[1].size().constant_value(), 4);
}

TEST(Subset, ParseErrors) {
  EXPECT_THROW(Subset::parse("0:1:2:3"), std::invalid_argument);
}

TEST(Subset, SubstituteBindsSymbols) {
  Subset s = Subset::parse("i, 0:N-1").substitute({{"i", 2}, {"N", 5}});
  EXPECT_EQ(s.to_string(), "2, 0:4");
}

TEST(Memlet, VolumeDefaultsToSubset) {
  Memlet m = Memlet::simple("A", "0:N-1, 0:M-1");
  EXPECT_EQ(m.effective_volume().evaluate({{"N", 3}, {"M", 4}}), 12);
  m.volume = symbolic::parse("N");
  EXPECT_EQ(m.effective_volume().evaluate({{"N", 3}, {"M", 4}}), 3);
}

TEST(Memlet, ToString) {
  Memlet m = Memlet::simple("A", "i, j", Wcr::Sum);
  EXPECT_EQ(m.to_string(), "A[i, j] (wcr: sum)");
  EXPECT_EQ(Memlet::none().to_string(), "(empty)");
}

State simple_state() {
  State state("s");
  NodeId a = state.add_access("A");
  auto [entry, exit] = state.add_map(
      MapInfo{"m", {"i"}, {Range{Expr(0), symbolic::parse("N-1"), Expr(1)}}});
  NodeId t = state.add_tasklet("t", "o = v * 2", entry);
  NodeId b = state.add_access("B");
  state.add_edge(a, entry, Memlet::simple("A", "0:N-1"), "", "IN_A");
  state.add_edge(entry, t, Memlet::simple("A", "i"), "OUT_A", "v");
  state.add_edge(t, exit, Memlet::simple("B", "i"), "o", "IN_B");
  state.add_edge(exit, b, Memlet::simple("B", "0:N-1"), "OUT_B", "");
  return state;
}

TEST(State, TopologicalOrder) {
  State state = simple_state();
  std::vector<NodeId> order = state.topological_order();
  ASSERT_EQ(order.size(), state.num_nodes());
  std::vector<int> position(state.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const Edge& edge : state.edges()) {
    EXPECT_LT(position[edge.src], position[edge.dst]);
  }
}

TEST(State, CycleDetection) {
  State state("s");
  NodeId t1 = state.add_tasklet("a", "o = v");
  NodeId t2 = state.add_tasklet("b", "o = v");
  state.add_edge(t1, t2, Memlet::none(), "o", "v");
  state.add_edge(t2, t1, Memlet::none(), "o", "v");
  EXPECT_THROW(state.topological_order(), std::logic_error);
}

TEST(State, ScopeQueries) {
  State state = simple_state();
  // Node 1 is the entry, node 3 the tasklet.
  const NodeId entry = 1, tasklet = 3;
  EXPECT_EQ(state.node(tasklet).scope_parent, entry);
  EXPECT_EQ(state.scope_depth(tasklet), 1);
  auto children = state.scope_children(entry);
  // Tasklet and map exit live in the entry's scope.
  EXPECT_EQ(children.size(), 2u);
  EXPECT_EQ(state.scope_chain(tasklet), std::vector<NodeId>{entry});
}

TEST(State, InOutEdges) {
  State state = simple_state();
  EXPECT_EQ(state.out_edges(0).size(), 1u);
  EXPECT_EQ(state.in_edges(1).size(), 1u);
  EXPECT_EQ(state.in_edges(0).size(), 0u);
}

TEST(State, EraseNodesCompactsAndRemaps) {
  State state = simple_state();
  NodeId extra = state.add_access("C");
  const std::size_t nodes_before = state.num_nodes();
  auto remap = state.erase_nodes({0});
  EXPECT_EQ(state.num_nodes(), nodes_before - 1);
  EXPECT_EQ(remap[0], kNoNode);
  // The edge from the erased access disappeared.
  for (const Edge& edge : state.edges()) {
    EXPECT_LT(edge.src, static_cast<NodeId>(state.num_nodes()));
    EXPECT_LT(edge.dst, static_cast<NodeId>(state.num_nodes()));
  }
  // Map pairing survives the remap.
  for (const Node& node : state.nodes()) {
    if (node.kind == NodeKind::MapEntry) {
      EXPECT_EQ(state.node(node.paired).paired, node.id);
    }
  }
  EXPECT_EQ(state.node(remap[extra]).data, "C");
}

TEST(State, AddEdgeRangeChecks) {
  State state("s");
  EXPECT_THROW(state.add_edge(0, 1, Memlet::none()), std::out_of_range);
}

Sdfg valid_sdfg() {
  Sdfg sdfg("prog");
  sdfg.add_symbol("N");
  sdfg.add_array(DataDescriptor::array("A", {symbolic::parse("N")}));
  sdfg.add_array(DataDescriptor::array("B", {symbolic::parse("N")}));
  State& state = sdfg.add_state("s");
  NodeId a = state.add_access("A");
  auto [entry, exit] = state.add_map(
      MapInfo{"m", {"i"}, {Range{Expr(0), symbolic::parse("N-1"), Expr(1)}}});
  NodeId t = state.add_tasklet("t", "o = v * 2", entry);
  NodeId b = state.add_access("B");
  state.add_edge(a, entry, Memlet::simple("A", "0:N-1"), "", "IN_A");
  state.add_edge(entry, t, Memlet::simple("A", "i"), "OUT_A", "v");
  state.add_edge(t, exit, Memlet::simple("B", "i"), "o", "IN_B");
  state.add_edge(exit, b, Memlet::simple("B", "0:N-1"), "OUT_B", "");
  return sdfg;
}

TEST(Sdfg, ArrayManagement) {
  Sdfg sdfg("p");
  sdfg.add_array(DataDescriptor::array("A", {Expr(4)}));
  EXPECT_TRUE(sdfg.has_array("A"));
  EXPECT_THROW(sdfg.add_array(DataDescriptor::array("A", {Expr(4)})),
               std::invalid_argument);
  EXPECT_THROW(sdfg.array("missing"), std::out_of_range);
  sdfg.remove_array("A");
  EXPECT_FALSE(sdfg.has_array("A"));
  EXPECT_THROW(sdfg.remove_array("A"), std::out_of_range);
}

TEST(Validate, AcceptsWellFormed) {
  EXPECT_TRUE(validate(valid_sdfg()).empty());
  EXPECT_NO_THROW(validate_or_throw(valid_sdfg()));
}

TEST(Validate, RejectsUndeclaredContainer) {
  Sdfg sdfg("p");
  State& state = sdfg.add_state("s");
  state.add_access("ghost");
  auto issues = validate(sdfg);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("ghost"), std::string::npos);
  EXPECT_THROW(validate_or_throw(sdfg), std::runtime_error);
}

TEST(Validate, RejectsRankMismatch) {
  Sdfg sdfg = valid_sdfg();
  State& state = sdfg.states()[0];
  // A 2-D subset over the 1-D array A.
  state.add_edge(0, 0, Memlet::simple("A", "0:1, 0:1"));
  EXPECT_FALSE(validate(sdfg).empty());
}

TEST(Validate, RejectsScopeCrossingEdge) {
  Sdfg sdfg = valid_sdfg();
  State& state = sdfg.states()[0];
  // Access node (top level) directly into the tasklet (map scope).
  state.add_edge(0, 3, Memlet::simple("A", "0"));
  auto issues = validate(sdfg);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("scope"), std::string::npos);
}

TEST(Validate, RejectsEmptyTasklet) {
  Sdfg sdfg("p");
  State& state = sdfg.add_state("s");
  state.add_tasklet("empty", TaskletAst{});
  EXPECT_FALSE(validate(sdfg).empty());
}

TEST(Validate, RejectsParamlessMap) {
  Sdfg sdfg("p");
  State& state = sdfg.add_state("s");
  state.add_map(MapInfo{"m", {}, {}});
  EXPECT_FALSE(validate(sdfg).empty());
}

TEST(Validate, RejectsBadElementSize) {
  Sdfg sdfg("p");
  auto d = DataDescriptor::array("A", {Expr(4)});
  d.element_size = 0;
  sdfg.add_array(std::move(d));
  EXPECT_FALSE(validate(sdfg).empty());
}

TEST(Serialize, JsonContainsStructure) {
  std::string json = to_json(valid_sdfg());
  EXPECT_NE(json.find("\"name\": \"prog\""), std::string::npos);
  EXPECT_NE(json.find("\"symbols\": [\"N\"]"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"map_entry\""), std::string::npos);
  EXPECT_EQ(json.find("\"wcr\""), std::string::npos) << "no wcr expected";
}

TEST(Serialize, JsonEscapesQuotes) {
  Sdfg sdfg("has\"quote");
  EXPECT_NE(to_json(sdfg).find("has\\\"quote"), std::string::npos);
}

}  // namespace
}  // namespace dmv::ir
