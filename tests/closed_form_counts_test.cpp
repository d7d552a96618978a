// Closed-form counts tests.
//
// A counts-only MetricPipeline (no distances, no exact cache) answers
// from translated boxes instead of a trace whenever the program fits the
// box rule (docs/simulation.md, "Closed-form counts"). Its contract is
// the pipeline's: every result equals the serial oracle over
// simulate()'s trace, field by field, through run(sdfg), run_streaming
// and run_delta at any thread count. Programs outside the rule must
// still match through the simulator and name why the counter declined,
// and bindings the simulator rejects must throw exactly what it throws.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"
#include "sweep_cases.hpp"

namespace dmv::sim {
namespace {

using reference::expect_matches_standalone;
using reference::expect_results_equal;
using reference::standalone_result;

using symbolic::SymbolMap;

PipelineConfig counts_only() { return PipelineConfig{}; }

// Every drive at threads {1, 8} against the oracle over the simulated
// trace, which it returns. `declined` == nullptr: the counter must
// answer every drive (no trace, no simulation time); otherwise run_delta
// must report a cold step with exactly that decline reason.
PipelineResult check(const ir::Sdfg& sdfg, const SymbolMap& binding,
                     const char* declined, const std::string& name,
                     const PipelineConfig& config = counts_only()) {
  const PipelineResult expected =
      standalone_result(simulate(sdfg, binding), config);
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    const std::string context = name + " threads " + std::to_string(threads);
    MetricPipeline materialized(config);
    expect_results_equal(materialized.run(sdfg, binding), expected,
                         context + " run(sdfg)");
    MetricPipeline streaming(config);
    expect_results_equal(streaming.run_streaming(sdfg, binding), expected,
                         context + " run_streaming");
    MetricPipeline delta(config);
    DeltaOutcome outcome;
    expect_results_equal(delta.run_delta(sdfg, 1, binding, {}, &outcome),
                         expected, context + " run_delta");
    if (declined == nullptr) {
      EXPECT_EQ(outcome.path, DeltaOutcome::Path::kClosedForm) << context;
      EXPECT_STREQ(outcome.reason, "") << context;
      EXPECT_EQ(delta.last_timings().simulate_ms, 0.0) << context;
      EXPECT_EQ(delta.last_timings().partitions, 1) << context;
      // No trace was ever generated.
      EXPECT_EQ(materialized.event_storage_bytes(), 0u) << context;
      EXPECT_EQ(delta.event_storage_bytes(), 0u) << context;
    } else {
      EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold) << context;
      EXPECT_STREQ(outcome.reason, declined) << context;
    }
  }
  return expected;
}

// Single-map program: B[i] = A[<read subset>] over i in `range`.
ir::Sdfg one_map(const std::string& range, const std::string& read_subset,
                 const std::vector<std::string>& a_shape = {"N"}) {
  builder::ProgramBuilder p("one_map");
  p.symbols({"N", "M"});
  p.array("A", a_shape);
  p.array("B", {"N"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", range}}, {{"a", "A", read_subset}}, "b = a",
                   {{"b", "B", "i"}});
  return p.take();
}

// --- Programs the counter accepts -------------------------------------

TEST(ClosedFormCounts, HdiffVariants) {
  for (const auto variant :
       {workloads::HdiffVariant::Baseline, workloads::HdiffVariant::Reshaped,
        workloads::HdiffVariant::Reordered, workloads::HdiffVariant::Padded}) {
    const ir::Sdfg sdfg = workloads::hdiff(variant);
    const std::string name =
        "hdiff variant " + std::to_string(static_cast<int>(variant));
    check(sdfg, {{"I", 8}, {"J", 8}, {"K", 4}}, nullptr, name);
    check(sdfg, {{"I", 12}, {"J", 10}, {"K", 3}}, nullptr, name + " wide");
  }
  const sweep_cases::Sweep sweep = sweep_cases::hdiff_sweep();
  for (const SymbolMap& binding : sweep.bindings) {
    check(sweep.sdfg, binding, nullptr, "hdiff sweep");
  }
}

TEST(ClosedFormCounts, BertStages) {
  for (const auto stage : {workloads::BertStage::Baseline,
                           workloads::BertStage::Fused1,
                           workloads::BertStage::Fused2}) {
    check(workloads::bert_encoder(stage), workloads::bert_small(), nullptr,
          "bert stage " + std::to_string(static_cast<int>(stage)));
  }
  const sweep_cases::Sweep sweep = sweep_cases::bert_sweep();
  for (const SymbolMap& binding : sweep.bindings) {
    check(sweep.sdfg, binding, nullptr, "bert sweep");
  }
}

TEST(ClosedFormCounts, Matmul) {
  // C accumulates with a Sum WCR: one write per update, no read.
  check(workloads::matmul(), workloads::matmul_fig5(), nullptr, "matmul");
}

TEST(ClosedFormCounts, OuterProduct) {
  check(workloads::outer_product(), workloads::outer_product_fig3(), nullptr,
        "outer_product");
}

TEST(ClosedFormCounts, WcrIntoOneElementArray) {
  builder::ProgramBuilder p("wcr_scalar");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("S", {"1"});
  p.state("s");
  p.mapped_tasklet("sum", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "s = a",
                   {{"s", "S", "0", ir::Wcr::Sum}});
  check(p.take(), {{"N", 37}}, nullptr, "wcr scalar");
}

TEST(ClosedFormCounts, NestedRectangularMaps) {
  builder::ProgramBuilder p("nested");
  p.symbols({"N", "M"});
  p.array("A", {"M"});
  p.array("B", {"N", "M"});
  p.array("C", {"N"});
  p.state("s");
  p.begin_map("outer", {{"i", "1:N-1"}});
  p.mapped_tasklet("inner", {{"j", "0:M-1"}}, {{"a", "A", "j"}}, "b = a",
                   {{"b", "B", "i, j"}});
  // A whole row of A per point: a box that reads no map parameter.
  p.mapped_tasklet("row", {{"k", "0:2"}}, {{"a", "A", "1:M-1"}}, "c = a",
                   {{"c", "C", "i"}});
  p.end_map();
  check(p.take(), {{"N", 9}, {"M", 7}}, nullptr, "nested maps");
}

TEST(ClosedFormCounts, ZeroTripMap) {
  // M = 0: the map runs no iteration, so its memlets are never
  // evaluated — not even the one that would leave A.
  check(one_map("0:M-1", "i + 100"), {{"N", 8}, {"M", 0}}, nullptr,
        "zero-trip map");
}

TEST(ClosedFormCounts, SubsetEndBeforeBegin) {
  // "i, 3:1": the simulator's odometer emits (i, 3) once per point.
  check(one_map("0:N-1", "i, 3:1", {"N", "4"}), {{"N", 6}}, nullptr,
        "end < begin");
  // "i, 1:2:4": the step overshoots the end, so only (i, 1) is emitted.
  check(one_map("0:N-1", "i, 1:2:4", {"N", "4"}), {{"N", 6}}, nullptr,
        "step past end");
}

TEST(ClosedFormCounts, LargestLedgerBindings) {
  // revisit-disk's largest bookmark and explore-bert's largest binding:
  // check() drives them at 1 and 8 threads, and a run from inside a pool
  // task must build the same columns.
  struct Case {
    ir::Sdfg sdfg;
    SymbolMap binding;
    std::size_t values;
    std::string name;
  };
  const Case cases[] = {
      {workloads::hdiff(workloads::HdiffVariant::Reordered),
       {{"I", 64}, {"J", 64}, {"K", 40}},
       1025280,
       "hdiff_reordered"},
      {workloads::bert_encoder(workloads::BertStage::Baseline),
       {{"B", 2}, {"H", 4}, {"P", 16}, {"I", 64}, {"SM", 28}, {"emb", 64}},
       235840,
       "bert"},
  };
  for (const Case& c : cases) {
    const PipelineResult expected = check(c.sdfg, c.binding, nullptr, c.name);
    std::size_t values = 0;
    for (std::size_t k = 0; k < expected.containers.size(); ++k) {
      values += expected.counts.reads[k].size();
      values += expected.counts.writes[k].size();
    }
    EXPECT_EQ(values, c.values) << c.name;
    par::ThreadScope scope(8);
    PipelineResult nested;
    par::parallel_tasks(2, [&](std::size_t task) {
      if (task == 0) {
        nested = MetricPipeline(counts_only()).run(c.sdfg, c.binding);
      }
    });
    expect_results_equal(nested, expected, c.name + " inside a pool task");
  }
}

// --- Column widths and canonical form ---------------------------------
//
// The counter sweeps each column in words as wide as the sum of its box
// weights needs, then narrows the words to the canonical column: the
// minimum as base, in the narrowest width that holds max - min.

// Reads `container`[`element`] inside a map of `trips` trips, into S[0]
// through a Sum WCR.
void read_into_s(builder::ProgramBuilder& p, const std::string& label,
                 const std::string& trips, const std::string& container,
                 const std::string& element) {
  p.mapped_tasklet(label, {{"i", "0:" + trips + "-1"}},
                   {{"a", container, element}}, "s = a",
                   {{"s", "S", "0", ir::Wcr::Sum}});
}

TEST(ClosedFormCounts, TwoAndFourByteColumns) {
  // A[1] is read 200 + 100 times and C[2] 40,000 + 30,000 times, beside
  // elements nothing reads: each sum needs a wider word than either of
  // its weights, and its two boxes share both corners.
  builder::ProgramBuilder p("wide_counts");
  p.array("A", {"4"});
  p.array("C", {"4"});
  p.array("S", {"1"});
  p.state("s");
  read_into_s(p, "a200", "200", "A", "1");
  read_into_s(p, "a100", "100", "A", "1");
  read_into_s(p, "c40k", "40000", "C", "2");
  read_into_s(p, "c30k", "30000", "C", "2");
  const AccessCounts counts = check(p.take(), {}, nullptr, "wide").counts;
  EXPECT_EQ(counts.reads[0], (CountColumn{0, 300, 0, 0}));
  EXPECT_EQ(counts.reads[0].byte_width(), 2u);
  EXPECT_EQ(counts.reads[1], (CountColumn{0, 0, 70000, 0}));
  EXPECT_EQ(counts.reads[1].byte_width(), 4u);
  // Every tasklet writes S[0]: one value, stored as base 70,300 plus a
  // one-byte 0.
  EXPECT_EQ(counts.writes[2].base(), 70300);
  EXPECT_EQ(counts.writes[2].byte_width(), 1u);
}

TEST(ClosedFormCounts, MinimumAboveZero) {
  // Two maps write half of B each, so every element is written once,
  // and their boxes meet at one flat index. Both read all of A.
  builder::ProgramBuilder p("written_once");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"2*N"});
  p.state("s");
  p.mapped_tasklet("low", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "b = a",
                   {{"b", "B", "i"}});
  p.mapped_tasklet("high", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "b = a",
                   {{"b", "B", "i + N"}});
  const AccessCounts counts =
      check(p.take(), {{"N", 300}}, nullptr, "written once").counts;
  EXPECT_EQ(counts.writes[1].base(), 1);
  EXPECT_EQ(counts.writes[1].byte_width(), 1u);
  EXPECT_EQ(counts.writes[1].sum(), 600);
  EXPECT_EQ(counts.reads[0].base(), 2);
}

TEST(ClosedFormCounts, WeightSumWiderThanTheCounts) {
  // Two disjoint boxes of weight 200 that meet at one flat index: the
  // weights sum to 400, which needs two bytes, but no count passes 200.
  builder::ProgramBuilder p("disjoint_boxes");
  p.array("A", {"4"});
  p.array("S", {"1"});
  p.state("s");
  read_into_s(p, "first", "200", "A", "1");
  read_into_s(p, "second", "200", "A", "2");
  const AccessCounts counts = check(p.take(), {}, nullptr, "disjoint").counts;
  EXPECT_EQ(counts.reads[0], (CountColumn{0, 200, 200, 0}));
  EXPECT_EQ(counts.reads[0].byte_width(), 1u);
}

TEST(ClosedFormCounts, CountsAboveTwoToThe32) {
  // A[1] is read once per point of a 70,000 x 70,000 map: 4.9e9 reads,
  // far too many to simulate, so the columns are written out by hand.
  constexpr std::int64_t kReads = std::int64_t{70000} * 70000;
  builder::ProgramBuilder p("huge_map");
  p.array("A", {"2"});
  p.array("S", {"1"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:69999"}, {"j", "0:69999"}},
                   {{"a", "A", "1"}}, "s = a",
                   {{"s", "S", "0", ir::Wcr::Sum}});
  const ir::Sdfg sdfg = p.take();
  PipelineResult expected;
  expected.containers = {"A", "S"};
  expected.events = 2 * kReads;
  expected.executions = kReads;
  expected.counts.reads = {CountColumn{0, kReads}, CountColumn{0}};
  expected.counts.writes = {CountColumn{0, 0}, CountColumn{kReads}};
  EXPECT_EQ(expected.counts.reads[0].byte_width(), 8u);
  EXPECT_EQ(expected.counts.writes[1].byte_width(), 1u);
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    const std::string context = "threads " + std::to_string(threads);
    MetricPipeline delta(counts_only());
    DeltaOutcome outcome;
    const PipelineResult counted = delta.run_delta(sdfg, 1, {}, {}, &outcome);
    // Any other path would simulate 9.8e9 events.
    ASSERT_EQ(outcome.path, DeltaOutcome::Path::kClosedForm) << context;
    expect_results_equal(counted, expected, context + " run_delta");
    expect_results_equal(MetricPipeline(counts_only()).run(sdfg, {}),
                         expected, context + " run(sdfg)");
    expect_results_equal(MetricPipeline(counts_only()).run_streaming(sdfg, {}),
                         expected, context + " run_streaming");
  }
}

TEST(ClosedFormCounts, EventsAndExecutionsWithoutCounts) {
  PipelineConfig config;
  config.counts = false;
  check(workloads::hdiff(workloads::HdiffVariant::Baseline),
        {{"I", 8}, {"J", 8}, {"K", 4}}, nullptr, "no counts", config);
}

// --- Programs outside the rule ----------------------------------------

TEST(ClosedFormCounts, Conv2dDeclines) {
  check(workloads::conv2d(), workloads::conv2d_fig4(),
        "closed form: subset dimension is not param + constant", "conv2d");
}

TEST(ClosedFormCounts, TiledMatmulDeclines) {
  ir::Sdfg sdfg = workloads::matmul();
  ir::State& state = sdfg.states()[0];
  ir::NodeId entry = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::MapEntry) entry = node.id;
  }
  transforms::tile_map(state, entry, "i", 3);
  check(sdfg, {{"M", 12}, {"N", 8}, {"K", 6}},
        "closed form: map range reads a map parameter", "tiled matmul");
}

TEST(ClosedFormCounts, AccessCopiesDecline) {
  builder::ProgramBuilder p("copies");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.state("s");
  p.copy("A", "1:N-1, 0:N-1", "B", "0:N-2, 0:N-1");
  check(p.take(), {{"N", 12}}, "closed form: access-node copy", "copies");
}

TEST(ClosedFormCounts, StridedSubsetDeclines) {
  check(one_map("0:N-1", "i, 0:3:2", {"N", "4"}), {{"N", 6}},
        "closed form: strided subset dimension", "0:3:2");
}

TEST(ClosedFormCounts, WindowAlongParameterDeclines) {
  const char* reason =
      "closed form: subset spans several elements along a map parameter";
  check(one_map("0:N-3", "i:i+2"), {{"N", 10}}, reason, "i:i+2 window");

  // A warm step that splices the checkpoint names the decline too.
  const ir::Sdfg window = one_map("0:M-1", "i:i+2");
  MetricPipeline pipeline(counts_only());
  pipeline.run_delta(window, 1, {{"N", 9000}, {"M", 4000}});
  const SymbolMap longer{{"N", 9000}, {"M", 8000}};
  DeltaOutcome outcome;
  expect_results_equal(
      pipeline.run_delta(window, 1, longer, {}, &outcome),
      standalone_result(simulate(window, longer), counts_only()),
      "window chunk delta");
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta);
  EXPECT_STREQ(outcome.reason, reason);
}

// --- Parameter shadowing ----------------------------------------------

TEST(ClosedFormCounts, NestedMapReusingOuterParameter) {
  // The inner map rebinds i; the sibling map after it sees the outer i.
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
  check(p.take(), {{"N", 6}, {"M", 9}}, nullptr, "nested shadow");
}

TEST(ClosedFormCounts, MapParameterNamedLikeProgramSymbol) {
  // The map parameter N shadows the program symbol N inside the map:
  // A[N] walks 0..M-1, while A's extent still reads the bound N.
  builder::ProgramBuilder p("param_named_like_symbol");
  p.symbols({"N", "M"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.state("s");
  p.mapped_tasklet("t", {{"N", "0:M-1"}}, {{"a", "A", "N"}}, "b = a",
                   {{"b", "B", "N"}});
  check(p.take(), {{"N", 8}, {"M", 5}}, nullptr, "parameter N over 0:M-1");
}

// --- Error parity -----------------------------------------------------

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& error) {
    return std::string(typeid(error).name()) + ": " + error.what();
  }
  return "no exception";
}

// The expected error is the serial simulator's. At 8 threads chunks
// fail concurrently, so each path repeats: the error must not depend on
// which chunk failed first in time.
void expect_same_error(const ir::Sdfg& sdfg, const SymbolMap& binding,
                       const std::string& name) {
  std::string expected;
  {
    par::ThreadScope serial(1);
    expected = error_of([&] { simulate(sdfg, binding); });
  }
  ASSERT_NE(expected, "no exception") << name;
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    for (int repeat = 0; repeat < (threads == 1 ? 1 : 20); ++repeat) {
      EXPECT_EQ(error_of([&] { simulate(sdfg, binding); }), expected)
          << name << " simulate";
      MetricPipeline pipeline(counts_only());
      EXPECT_EQ(error_of([&] { pipeline.run(sdfg, binding); }), expected)
          << name << " run(sdfg)";
      EXPECT_EQ(error_of([&] { pipeline.run_streaming(sdfg, binding); }),
                expected)
          << name << " run_streaming";
      EXPECT_EQ(error_of([&] { pipeline.run_delta(sdfg, 1, binding); }),
                expected)
          << name << " run_delta";
    }
  }
}

TEST(ClosedFormCounts, ErrorsMatchTheSimulator) {
  const ir::Sdfg hdiff = workloads::hdiff(workloads::HdiffVariant::Baseline);
  expect_same_error(hdiff, {{"I", 8}, {"J", 8}}, "unbound symbol");
  expect_same_error(hdiff, {{"I", -10}, {"J", 8}, {"K", 4}},
                    "non-positive extent");
  expect_same_error(one_map("0:N-1", "i + 1"), {{"N", 8}},
                    "out-of-bounds subset");
  // K past its capacity: every chunk of an 8-thread run reads out of
  // bounds, and the first chunk's access is the one serial order meets.
  expect_same_error(
      workloads::fixed_capacity(hdiff, {{"K", "KMAX"}}),
      {{"I", 32}, {"J", 32}, {"K", 9}, {"KMAX", 8}}, "K past KMAX");
}

}  // namespace
}  // namespace dmv::sim
