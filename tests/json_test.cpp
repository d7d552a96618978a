#include "dmv/ir/json_reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::ir {
namespace {

void expect_structurally_equal(const Sdfg& a, const Sdfg& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.symbols(), b.symbols());
  ASSERT_EQ(a.arrays().size(), b.arrays().size());
  for (const auto& [name, descriptor] : a.arrays()) {
    ASSERT_TRUE(b.has_array(name));
    const DataDescriptor& other = b.array(name);
    ASSERT_EQ(descriptor.rank(), other.rank());
    for (int d = 0; d < descriptor.rank(); ++d) {
      EXPECT_TRUE(descriptor.shape[d].equals(other.shape[d]));
      EXPECT_TRUE(descriptor.strides[d].equals(other.strides[d]));
    }
    EXPECT_EQ(descriptor.element_size, other.element_size);
    EXPECT_EQ(descriptor.transient, other.transient);
  }
  ASSERT_EQ(a.states().size(), b.states().size());
  for (std::size_t s = 0; s < a.states().size(); ++s) {
    const State& sa = a.states()[s];
    const State& sb = b.states()[s];
    ASSERT_EQ(sa.num_nodes(), sb.num_nodes());
    for (std::size_t n = 0; n < sa.num_nodes(); ++n) {
      const Node& na = sa.node(static_cast<NodeId>(n));
      const Node& nb = sb.node(static_cast<NodeId>(n));
      EXPECT_EQ(na.kind, nb.kind);
      EXPECT_EQ(na.label, nb.label);
      EXPECT_EQ(na.data, nb.data);
      EXPECT_EQ(na.paired, nb.paired);
      EXPECT_EQ(na.scope_parent, nb.scope_parent);
      EXPECT_EQ(na.map.params, nb.map.params);
    }
    ASSERT_EQ(sa.edges().size(), sb.edges().size());
    for (std::size_t e = 0; e < sa.edges().size(); ++e) {
      EXPECT_EQ(sa.edges()[e].src, sb.edges()[e].src);
      EXPECT_EQ(sa.edges()[e].dst, sb.edges()[e].dst);
      EXPECT_EQ(sa.edges()[e].memlet.data, sb.edges()[e].memlet.data);
      EXPECT_EQ(sa.edges()[e].memlet.subset.to_string(),
                sb.edges()[e].memlet.subset.to_string());
      EXPECT_EQ(sa.edges()[e].memlet.wcr, sb.edges()[e].memlet.wcr);
    }
  }
}

TEST(JsonRoundTrip, Matmul) {
  Sdfg original = workloads::matmul();
  Sdfg restored = from_json(to_json(original));
  expect_structurally_equal(original, restored);
  EXPECT_NO_THROW(validate_or_throw(restored));
}

TEST(JsonRoundTrip, HdiffAllVariants) {
  for (auto variant :
       {workloads::HdiffVariant::Baseline, workloads::HdiffVariant::Padded}) {
    Sdfg original = workloads::hdiff(variant);
    Sdfg restored = from_json(to_json(original));
    expect_structurally_equal(original, restored);
  }
}

TEST(JsonRoundTrip, BertSurvivesFusionThenSerialization) {
  Sdfg original = workloads::bert_encoder(workloads::BertStage::Fused2);
  Sdfg restored = from_json(to_json(original));
  expect_structurally_equal(original, restored);
  EXPECT_NO_THROW(validate_or_throw(restored));
}

TEST(JsonRoundTrip, AnalysesAgree) {
  Sdfg original = workloads::hdiff(workloads::HdiffVariant::Baseline);
  Sdfg restored = from_json(to_json(original));
  const symbolic::SymbolMap params = workloads::hdiff_local();
  EXPECT_EQ(analysis::total_movement_bytes(original).evaluate(params),
            analysis::total_movement_bytes(restored).evaluate(params));
  EXPECT_EQ(analysis::total_operations(original).evaluate(params),
            analysis::total_operations(restored).evaluate(params));
  // Simulation on the restored graph produces the identical trace.
  sim::AccessTrace a = sim::simulate(original, params);
  sim::AccessTrace b = sim::simulate(restored, params);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].flat, b.events[i].flat);
    EXPECT_EQ(a.events[i].container, b.events[i].container);
  }
}

TEST(JsonRoundTrip, InterpreterAgrees) {
  Sdfg original = workloads::outer_product();
  Sdfg restored = from_json(to_json(original));
  const symbolic::SymbolMap params = workloads::outer_product_fig3();
  exec::Buffers buffers_a(original, params);
  exec::Buffers buffers_b(restored, params);
  buffers_a.set_logical("A", {1, 2, 3});
  buffers_a.set_logical("B", {4, 5, 6, 7});
  buffers_b.set_logical("A", {1, 2, 3});
  buffers_b.set_logical("B", {4, 5, 6, 7});
  exec::run(original, params, buffers_a);
  exec::run(restored, params, buffers_b);
  EXPECT_EQ(buffers_a.logical("C"), buffers_b.logical("C"));
}

/// Builders of the ten named workloads and of the drag program.
std::vector<std::function<Sdfg()>> program_builders() {
  std::vector<std::function<Sdfg()>> builders;
  for (const char* name :
       {"hdiff", "hdiff_reshaped", "hdiff_reordered", "hdiff_padded", "bert",
        "bert_fused1", "bert_fused2", "matmul", "conv2d", "outer_product"}) {
    builders.push_back([name] { return serve::workload_by_name(name); });
  }
  builders.push_back([] {
    return workloads::fixed_capacity(
        workloads::hdiff(workloads::HdiffVariant::Reordered), {{"K", "KMAX"}});
  });
  return builders;
}

// The first map, tasklet and connected memlet edge of state 0.
Node& first_node(Sdfg& sdfg, NodeKind kind) {
  for (Node& node : sdfg.states()[0].mutable_nodes()) {
    if (node.kind == kind) return node;
  }
  throw std::logic_error("no such node");
}
MapInfo& first_map(Sdfg& sdfg) {
  return first_node(sdfg, NodeKind::MapEntry).map;
}
TaskletAst& first_tasklet(Sdfg& sdfg) {
  return first_node(sdfg, NodeKind::Tasklet).code;
}
Edge& first_edge(Sdfg& sdfg) {
  for (Edge& edge : sdfg.states()[0].mutable_edges()) {
    if (!edge.memlet.is_empty() && !edge.dst_conn.empty()) return edge;
  }
  throw std::logic_error("no such edge");
}

TEST(JsonRoundTrip, StructuralHashIsStableAndSeesEveryField) {
  // Builders leave Memlet::volume 0 and the reader stores the effective
  // volume, so only a hash of effective_volume() survives the trip.
  const std::vector<std::function<Sdfg()>> builders = program_builders();
  std::vector<std::uint64_t> forward;
  {
    par::ThreadScope one(1);
    for (const auto& build : builders) {
      const Sdfg program = build();
      forward.push_back(structural_hash(program));
      EXPECT_EQ(structural_hash(from_json(to_json(program))), forward.back())
          << program.name();
    }
  }
  // Another build order interns symbols and nodes in another order; the
  // hash reads names and values only, at any thread count.
  {
    par::ThreadScope eight(8);
    std::vector<std::uint64_t> backward(builders.size());
    for (std::size_t i = builders.size(); i-- > 0;) {
      backward[i] = structural_hash(builders[i]());
    }
    EXPECT_EQ(backward, forward);
  }

  // One edit per hashed field, each on a fresh copy of hdiff. Each
  // changes the hash and survives the JSON round trip.
  const Sdfg base = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const std::uint64_t base_hash = structural_hash(base);
  const std::vector<std::pair<std::string, std::function<void(Sdfg&)>>>
      edits = {
          {"start_offset", [](Sdfg& p) { p.array("coeff").start_offset = 3; }},
          {"collapsed", [](Sdfg& p) { first_map(p).collapsed = true; }},
          {"map label", [](Sdfg& p) { first_map(p).label += "'"; }},
          {"tasklet source", [](Sdfg& p) { first_tasklet(p).source += " "; }},
          {"connector", [](Sdfg& p) { first_edge(p).dst_conn += "'"; }},
          {"element_size", [](Sdfg& p) { p.array("coeff").element_size = 4; }},
          {"wcr", [](Sdfg& p) { first_edge(p).memlet.wcr = Wcr::Sum; }},
          {"other_subset",
           [](Sdfg& p) {
             first_edge(p).memlet.other_subset = Subset::parse("0");
           }},
          {"explicit volume",
           [](Sdfg& p) {
             Memlet& memlet = first_edge(p).memlet;
             memlet.volume = memlet.effective_volume() + 1;
           }},
      };
  for (const auto& [field, edit] : edits) {
    Sdfg edited = base;
    edit(edited);
    EXPECT_NE(structural_hash(edited), base_hash) << field;
    EXPECT_EQ(structural_hash(from_json(to_json(edited))),
              structural_hash(edited))
        << field;
  }
}

TEST(JsonReader, RejectsMalformedJson) {
  EXPECT_THROW(from_json(""), JsonError);
  EXPECT_THROW(from_json("{"), JsonError);
  EXPECT_THROW(from_json("{\"name\": }"), JsonError);
  EXPECT_THROW(from_json("[1, 2"), JsonError);
  EXPECT_THROW(from_json("{\"name\": \"x\"} trailing"), JsonError);
  EXPECT_THROW(from_json("{\"name\": \"unterminated}"), JsonError);
}

TEST(JsonReader, DeepNestingIsAParseErrorNotAStackOverflow) {
  const std::string deep(1000000, '[');
  EXPECT_THROW(dmv::json::parse(deep), dmv::json::ParseError);
  EXPECT_THROW(from_json("{\"name\": " + deep), JsonError);
  // The cap leaves ordinary nesting alone.
  const std::string fine = std::string(200, '[') + std::string(200, ']');
  EXPECT_NO_THROW(dmv::json::parse(fine));
}

TEST(JsonReader, RejectsWrongSchema) {
  EXPECT_THROW(from_json("{\"title\": \"no name\"}"), JsonError);
  EXPECT_THROW(from_json("{\"name\": \"p\", \"symbols\": 3}"), JsonError);
  EXPECT_THROW(
      from_json("{\"name\": \"p\", \"symbols\": [], \"containers\": "
                "[{\"name\": \"A\"}], \"states\": []}"),
      JsonError);
  // Integer fields must be integral and fit their type: an element size
  // of 8.75 is malformed, and 1e300 or 1e20 fit no int.
  const auto program = [](const std::string& element_size,
                          const std::string& node_id) {
    return "{\"name\": \"p\", \"symbols\": [], \"containers\": [{\"name\": "
           "\"A\", \"shape\": [\"4\"], \"strides\": [\"1\"], "
           "\"element_size\": " +
           element_size +
           ", \"transient\": false}], \"states\": [{\"name\": \"s\", "
           "\"nodes\": [{\"id\": " +
           node_id +
           ", \"kind\": \"access\", \"label\": \"A\", \"data\": \"A\"}], "
           "\"edges\": []}]}";
  };
  EXPECT_EQ(from_json(program("8", "0")).array("A").element_size, 8);
  EXPECT_THROW(from_json(program("8.75", "0")), JsonError);
  EXPECT_THROW(from_json(program("1e300", "0")), JsonError);
  EXPECT_THROW(from_json(program("8", "1e20")), JsonError);

  // The optional fields are checked like the others.
  Sdfg edited = workloads::hdiff(workloads::HdiffVariant::Baseline);
  edited.array("coeff").start_offset = 3;
  first_map(edited).collapsed = true;
  first_map(edited).label += "'";
  const std::string text = to_json(edited);
  for (const auto& [field, malformed] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"start_offset\": \"3\"", "\"start_offset\": 3"},
           {"\"start_offset\": \"3\"", "\"start_offset\": \"3 +\""},
           {"\"collapsed\": true", "\"collapsed\": 1"},
           {"\"map_label\": ", "\"map_label\": 7, \"x\": "}}) {
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    std::string damaged = text;
    damaged.replace(at, field.size(), malformed);
    EXPECT_THROW(from_json(damaged), JsonError) << malformed;
  }
}

TEST(JsonReader, ParsesEscapes) {
  Sdfg sdfg("quote\"backslash\\");
  Sdfg restored = from_json(to_json(sdfg));
  EXPECT_EQ(restored.name(), "quote\"backslash\\");
}

TEST(JsonRoundTrip, ControlBytesInLabelsAreEscaped) {
  Sdfg original = workloads::matmul();
  original.states()[0].node(0).label = "carriage\rreturn\x01";
  const std::string text = to_json(original);
  // The only raw control byte is the writer's own line break.
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  const Sdfg restored = from_json(text);
  EXPECT_EQ(restored.states()[0].node(0).label, "carriage\rreturn\x01");
  expect_structurally_equal(original, restored);
}

TEST(JsonReader, BadExpressionReportsCleanly) {
  const char* text =
      "{\"name\": \"p\", \"symbols\": [], \"containers\": [{\"name\": "
      "\"A\", \"shape\": [\"$$$\"], \"strides\": [\"1\"], "
      "\"element_size\": 8, \"transient\": false}], \"states\": []}";
  try {
    from_json(text);
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("bad expression"),
              std::string::npos);
  }
}

TEST(JsonTest, StringEscapesRoundTrip) {
  std::string control;
  for (int byte = 0x00; byte < 0x20; ++byte) {
    control += static_cast<char>(byte);
  }
  const std::string dumped = json::dump(json::Value::of(control));
  EXPECT_EQ(json::parse(dumped).as_string(), control);

  // Escapes other writers emit: Python's json.dumps writes non-ASCII
  // as \u escapes, and characters beyond the BMP as surrogate pairs.
  EXPECT_EQ(json::parse("\"caf\\u00e9\"").as_string(), "caf\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\u20AC\"").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(json::parse("\"a\\bb\\fc\"").as_string(), "a\bb\fc");
}

TEST(JsonTest, AsIntRefusesValuesOutsideInt64) {
  // 2^63 is one past INT64_MAX, and INT64_MAX's text parses to the
  // same double; neither may wrap to INT64_MIN.
  for (const char* text :
       {"9223372036854775808", "9223372036854775807", "1e19", "1.5"}) {
    EXPECT_THROW(json::parse(text).as_int(), json::ParseError) << text;
  }
  EXPECT_EQ(json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonTest, MalformedUnicodeEscapesAreParseErrors) {
  for (const char* text :
       {"\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"",
        "\"\\u12\"", "\"\\u12g4\""}) {
    EXPECT_THROW(json::parse(text), json::ParseError) << text;
  }
}

}  // namespace
}  // namespace dmv::ir
