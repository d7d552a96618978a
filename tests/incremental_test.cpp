// Delta-recomputation engine contract tests (docs/incremental.md).
//
// The overarching invariant mirrors the session layer's: the delta
// engine is a pure performance layer. MetricPipeline::run_delta must
// produce results bit-identical to a cold run(sdfg, symbols, options)
// for EVERY binding step — whether the step was satisfied by the
// no-change fast path, a chunk-level splice, a resumed metric
// checkpoint, or a full cold fallback — at any thread count and any
// lane width. On top of identity, the suite pins the classification
// behavior (DeltaOutcome), the chunk dependency analysis that justifies
// clean-chunk reuse, the Tier-1 closed-form bundle against simulated
// ground truth, and the session-level step accounting.

#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmv/analysis/analysis.hpp"
#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/symbolic/expr.hpp"
#include "dmv/workloads/workloads.hpp"
#include "sweep_cases.hpp"

namespace dmv::sim {
namespace {

using symbolic::SymbolMap;

// Full metric subscription: every consumer on, so identity failures in
// any fused pass surface.
PipelineConfig full_config() {
  PipelineConfig config;
  config.counts = true;
  config.miss_threshold_lines = 8;
  config.keep_distances = true;
  config.element_stats = true;
  config.movement = true;
  config.cache = CacheConfig{64, 4096, 4};
  return config;
}

void expect_identical(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.containers, b.containers);
  EXPECT_EQ(a.counts.reads, b.counts.reads);
  EXPECT_EQ(a.counts.writes, b.counts.writes);
  EXPECT_EQ(a.distances.line_size, b.distances.line_size);
  EXPECT_EQ(a.distances.distances, b.distances.distances);
  EXPECT_EQ(a.misses.threshold_lines, b.misses.threshold_lines);
  EXPECT_EQ(a.misses.element_misses, b.misses.element_misses);
  EXPECT_EQ(a.misses.total.cold, b.misses.total.cold);
  EXPECT_EQ(a.misses.total.capacity, b.misses.total.capacity);
  EXPECT_EQ(a.misses.total.hits, b.misses.total.hits);
  ASSERT_EQ(a.misses.per_container.size(), b.misses.per_container.size());
  for (std::size_t c = 0; c < a.misses.per_container.size(); ++c) {
    EXPECT_EQ(a.misses.per_container[c].cold, b.misses.per_container[c].cold);
    EXPECT_EQ(a.misses.per_container[c].capacity,
              b.misses.per_container[c].capacity);
    EXPECT_EQ(a.misses.per_container[c].hits, b.misses.per_container[c].hits);
  }
  ASSERT_EQ(a.element_stats.size(), b.element_stats.size());
  for (std::size_t c = 0; c < a.element_stats.size(); ++c) {
    EXPECT_EQ(a.element_stats[c].min, b.element_stats[c].min);
    EXPECT_EQ(a.element_stats[c].median, b.element_stats[c].median);
    EXPECT_EQ(a.element_stats[c].max, b.element_stats[c].max);
    EXPECT_EQ(a.element_stats[c].cold_count, b.element_stats[c].cold_count);
  }
  EXPECT_EQ(a.cache.total.cold, b.cache.total.cold);
  EXPECT_EQ(a.cache.total.capacity, b.cache.total.capacity);
  EXPECT_EQ(a.cache.total.hits, b.cache.total.hits);
  ASSERT_EQ(a.cache.per_container.size(), b.cache.per_container.size());
  for (std::size_t c = 0; c < a.cache.per_container.size(); ++c) {
    EXPECT_EQ(a.cache.per_container[c].cold, b.cache.per_container[c].cold);
    EXPECT_EQ(a.cache.per_container[c].capacity,
              b.cache.per_container[c].capacity);
    EXPECT_EQ(a.cache.per_container[c].hits, b.cache.per_container[c].hits);
  }
  EXPECT_EQ(a.movement.line_size, b.movement.line_size);
  EXPECT_EQ(a.movement.bytes_per_container, b.movement.bytes_per_container);
  EXPECT_EQ(a.movement.total_bytes, b.movement.total_bytes);
}

// Cold reference: a fresh pipeline per call, no checkpoint anywhere.
PipelineResult reference(const ir::Sdfg& sdfg, const SymbolMap& binding,
                         const SimulationOptions& options,
                         const PipelineConfig& config = full_config()) {
  MetricPipeline pipeline(config);
  return pipeline.run(sdfg, binding, options);
}

// The standard interactive-tuning build used throughout this file:
// arrays allocated at capacity KMAX, the K slider restricting only the
// iteration domain. With the Reordered variant k is the OUTERMOST loop,
// so a K move is an append/truncate of whole outer slices.
ir::Sdfg fixed_cap_hdiff() {
  return workloads::fixed_capacity(
      workloads::hdiff(workloads::HdiffVariant::Reordered), {{"K", "KMAX"}});
}

// I=J=20 puts one k-slice at 15*20*20 = 6000 events — above the delta
// planner's per-chunk event target, so every plan chunk is exactly one
// outer ordinal and append/truncate steps reuse every surviving chunk.
SymbolMap cap_binding(std::int64_t k, std::int64_t kmax = 16) {
  return SymbolMap{{"I", 20}, {"J", 20}, {"K", k}, {"KMAX", kmax}};
}

struct WorkloadCase {
  std::string name;
  ir::Sdfg sdfg;
  std::vector<SymbolMap> bindings;
  PipelineConfig config = full_config();
};

std::vector<WorkloadCase> identity_cases() {
  std::vector<WorkloadCase> cases;
  {
    // Stock hdiff: K reaches every container's layout, so slider moves
    // shift placements and the engine must FALL BACK cold — identity
    // still has to hold on every step.
    WorkloadCase c{"hdiff-baseline",
                   workloads::hdiff(workloads::HdiffVariant::Baseline),
                   {}};
    c.bindings.push_back({{"I", 4}, {"J", 4}, {"K", 3}});
    c.bindings.push_back({{"I", 4}, {"J", 4}, {"K", 4}});
    c.bindings.push_back({{"I", 4}, {"J", 4}, {"K", 6}});
    c.bindings.push_back({{"I", 5}, {"J", 6}, {"K", 6}});  // Multi-symbol.
    c.bindings.push_back({{"I", 4}, {"J", 4}, {"K", 3}});
    cases.push_back(std::move(c));
  }
  {
    // Fixed-capacity hdiff: the chunk-delta showcase. Walks up (append,
    // resume), down (truncate), jumps, and a multi-symbol layout move.
    WorkloadCase c{"hdiff-fixed-capacity", fixed_cap_hdiff(), {}};
    c.bindings.push_back(cap_binding(3));
    c.bindings.push_back(cap_binding(4));
    c.bindings.push_back(cap_binding(7));
    c.bindings.push_back(cap_binding(5));
    c.bindings.push_back(cap_binding(16));
    SymbolMap moved = cap_binding(6);
    moved["I"] = 18;
    moved["J"] = 22;
    c.bindings.push_back(moved);  // Layout move: cold fallback.
    c.bindings.push_back(cap_binding(3));
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c{"matmul", workloads::matmul(), {}};
    SymbolMap base = workloads::matmul_fig5();
    c.bindings.push_back(base);
    SymbolMap m = base;
    m["M"] = base.at("M") + 1;
    c.bindings.push_back(m);
    SymbolMap n = base;
    n["N"] = base.at("N") + 3;
    c.bindings.push_back(n);
    SymbolMap mk = base;
    mk["M"] = base.at("M") - 1;
    mk["K"] = base.at("K") - 2;
    c.bindings.push_back(mk);  // Multi-symbol.
    c.bindings.push_back(base);
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c{"bert-baseline",
                   workloads::bert_encoder(workloads::BertStage::Baseline),
                   {}};
    SymbolMap base = workloads::bert_small();
    c.bindings.push_back(base);
    SymbolMap sm = base;
    sm["SM"] = base.at("SM") + 2;
    c.bindings.push_back(sm);
    SymbolMap b = base;
    b["B"] = base.at("B") + 1;
    c.bindings.push_back(b);
    c.bindings.push_back(base);
    cases.push_back(std::move(c));
  }
  {
    // Two maps, and S shifts only the second one's reads: an S move
    // keeps every chunk's shape and the layouts, so the step splices
    // the first map's chunks and must re-simulate the second's.
    builder::ProgramBuilder p("shifted_read");
    p.symbols({"N", "S"});
    p.array("A", {"N + 8"});
    p.array("B", {"N"});
    p.array("C", {"N"});
    p.state("s");
    p.mapped_tasklet("copy", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "b = a",
                     {{"b", "B", "i"}});
    p.mapped_tasklet("shift", {{"i", "0:N-1"}}, {{"a", "A", "i + S"}},
                     "c = a", {{"c", "C", "i"}});
    WorkloadCase c{"shifted-read", p.take(), {}};
    for (const std::int64_t shift : {0, 1, 5, 1}) {
      c.bindings.push_back({{"N", 64}, {"S", shift}});
    }
    cases.push_back(std::move(c));
  }
  // The interactive slider sweeps, under their own metric set.
  for (sweep_cases::Sweep& sweep : sweep_cases::sweeps()) {
    cases.push_back({std::move(sweep.name), std::move(sweep.sdfg),
                     std::move(sweep.bindings),
                     sweep_cases::sweep_config()});
  }
  return cases;
}

// --- Bit-identity across workloads x threads x lanes -----------------

TEST(IncrementalDeltaTest, MatchesColdRecomputeAcrossWorkloadsThreadsLanes) {
  for (WorkloadCase& wc : identity_cases()) {
    for (int threads : {1, 8}) {
      par::ThreadScope scope(threads);
      for (int lanes : {1, 8}) {
        SimulationOptions options;
        options.lane_width = lanes;
        MetricPipeline delta(wc.config);  // Persistent across steps.
        for (std::size_t step = 0; step < wc.bindings.size(); ++step) {
          SCOPED_TRACE(wc.name + " threads=" +
                       std::to_string(threads) + " lanes=" +
                       std::to_string(lanes) + " step=" +
                       std::to_string(step));
          DeltaOutcome outcome;
          PipelineResult got =
              delta.run_delta(wc.sdfg, 1, wc.bindings[step], options,
                              &outcome);
          expect_identical(got, reference(wc.sdfg, wc.bindings[step],
                                          options, wc.config));
        }
      }
    }
  }
}

TEST(IncrementalDeltaTest, RepeatedBindingIsBitIdenticalNotJustEqual) {
  // The no-change path must return a result equal to a fresh evaluation
  // even after intervening steps rebuilt the checkpoint buffers.
  ir::Sdfg sdfg = fixed_cap_hdiff();
  SimulationOptions options;
  MetricPipeline delta(full_config());
  delta.run_delta(sdfg, 1, cap_binding(5), options);
  delta.run_delta(sdfg, 1, cap_binding(8), options);
  DeltaOutcome outcome;
  PipelineResult again = delta.run_delta(sdfg, 1, cap_binding(8), options,
                                         &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kNoChange);
  expect_identical(again, reference(sdfg, cap_binding(8), options));
}

// --- Outcome classification ------------------------------------------

TEST(IncrementalDeltaTest, OutcomeClassification) {
  ir::Sdfg sdfg = fixed_cap_hdiff();
  SimulationOptions options;
  MetricPipeline delta(full_config());
  DeltaOutcome outcome;

  // First evaluation: nothing to reuse.
  delta.run_delta(sdfg, 1, cap_binding(6), options, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  EXPECT_STREQ(outcome.reason, "no checkpoint");

  // Identical binding: the checkpointed result is reused outright.
  delta.run_delta(sdfg, 1, cap_binding(6), options, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kNoChange);

  // Slider up: every existing chunk is clean (one outer k-slice each),
  // only the appended slice simulates, and the metric state RESUMES
  // from the checkpoint instead of replaying from event zero.
  PipelineResult up = delta.run_delta(sdfg, 1, cap_binding(7), options,
                                      &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta);
  EXPECT_TRUE(outcome.resumed);
  EXPECT_GT(outcome.chunks_clean, 0);
  EXPECT_EQ(outcome.chunks_dirty, 1);
  EXPECT_EQ(outcome.chunks_total, outcome.chunks_clean + outcome.chunks_dirty);
  expect_identical(up, reference(sdfg, cap_binding(7), options));

  // Slider down: pure truncation — every surviving chunk is clean, no
  // dirty simulation at all; the metric state replays (no resume).
  PipelineResult down = delta.run_delta(sdfg, 1, cap_binding(5), options,
                                        &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta);
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(outcome.chunks_dirty, 0);
  expect_identical(down, reference(sdfg, cap_binding(5), options));

  // A symbol reaching EVERY chunk (I sits in strides and inner map
  // ranges): nothing is clean, so the engine must detect it and run the
  // canonical cold path.
  SymbolMap moved = cap_binding(5);
  moved["I"] = 21;
  PipelineResult cold = delta.run_delta(sdfg, 1, moved, options, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  EXPECT_STREQ(outcome.reason, "binding delta dirties every chunk");
  expect_identical(cold, reference(sdfg, moved, options));

  // The same append at KMAX = 8 under the interactive sweep's metric
  // set (sweep_cases.hpp) resumes too.
  const PipelineConfig sweep_config = sweep_cases::sweep_config();
  MetricPipeline sweep(sweep_config);
  sweep.run_delta(sdfg, 1, cap_binding(4, 8), options);
  PipelineResult resumed =
      sweep.run_delta(sdfg, 1, cap_binding(5, 8), options, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta);
  EXPECT_TRUE(outcome.resumed);
  expect_identical(resumed,
                   reference(sdfg, cap_binding(5, 8), options, sweep_config));
}

TEST(IncrementalDeltaTest, ProgramOrOptionsChangeInvalidatesCheckpoint) {
  ir::Sdfg sdfg = fixed_cap_hdiff();
  SimulationOptions options;
  MetricPipeline delta(full_config());
  DeltaOutcome outcome;
  delta.run_delta(sdfg, 1, cap_binding(5), options, &outcome);

  // A different program version must not reuse the checkpoint.
  delta.run_delta(sdfg, 2, cap_binding(6), options, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  EXPECT_STREQ(outcome.reason, "program changed");

  // A lane-width change (bit-identical by contract) does not
  // invalidate it: the step stays a chunk delta.
  SimulationOptions lanes = options;
  lanes.lane_width = options.lane_width == 1 ? 8 : 1;
  PipelineResult got = delta.run_delta(sdfg, 2, cap_binding(8), lanes,
                                       &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta);
  expect_identical(got, reference(sdfg, cap_binding(8), lanes));
}

TEST(IncrementalDeltaTest, InterleavedPublicRunInvalidatesCheckpoint) {
  ir::Sdfg sdfg = fixed_cap_hdiff();
  SimulationOptions options;
  MetricPipeline delta(full_config());
  DeltaOutcome outcome;
  delta.run_delta(sdfg, 1, cap_binding(5), options, &outcome);

  // A public run() reuses the arena buffers; the checkpoint must not
  // survive it (the trace buffer was overwritten).
  delta.run(sdfg, cap_binding(9), options);
  PipelineResult got = delta.run_delta(sdfg, 1, cap_binding(6), options,
                                       &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  expect_identical(got, reference(sdfg, cap_binding(6), options));
}

// --- Chunk dependency analysis ---------------------------------------

TEST(IncrementalChunkDepsTest, AlignedWithPlanAndSliderSemantics) {
  ir::Sdfg sdfg = fixed_cap_hdiff();
  SymbolMap binding = cap_binding(6);
  SimulationOptions options;
  TracePlan plan = plan_trace(sdfg, binding, options, 1 << 20);
  ASSERT_TRUE(plan.parallelizable);
  ASSERT_GT(plan.chunks.size(), 1u);

  std::vector<std::set<std::string>> deps = chunk_dependencies(sdfg, plan);
  ASSERT_EQ(deps.size(), plan.chunks.size());
  for (std::size_t c = 0; c < deps.size(); ++c) {
    SCOPED_TRACE("chunk " + std::to_string(c));
    // K only bounds the chunked outermost dimension — excluded, so a
    // K slider move leaves every surviving chunk clean.
    EXPECT_EQ(deps[c].count("K"), 0u);
    // I and J sit in inner map ranges and strides: payload-relevant.
    EXPECT_EQ(deps[c].count("I"), 1u);
    EXPECT_EQ(deps[c].count("J"), 1u);
    // The capacity symbol sits in the substituted strides.
    EXPECT_EQ(deps[c].count("KMAX"), 1u);
    // Map parameters (i, j, k) are locally bound, never dependencies.
    EXPECT_EQ(deps[c].count("i"), 0u);
    EXPECT_EQ(deps[c].count("k"), 0u);
  }
}

TEST(IncrementalChunkDepsTest, StockLayoutKeepsSliderInDependencies) {
  // WITHOUT the fixed-capacity build, K sits in coeff/out_field strides
  // — the dependency analysis must keep it, which is exactly why the
  // stock build can never take the chunk-delta path on a K move.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Reordered);
  SymbolMap binding{{"I", 20}, {"J", 20}, {"K", 6}};
  TracePlan plan = plan_trace(sdfg, binding, SimulationOptions{}, 1 << 20);
  ASSERT_TRUE(plan.parallelizable);
  std::vector<std::set<std::string>> deps = chunk_dependencies(sdfg, plan);
  ASSERT_EQ(deps.size(), plan.chunks.size());
  for (const std::set<std::string>& d : deps) {
    EXPECT_EQ(d.count("K"), 1u);
  }
}

// --- Tier 1: closed-form bundle vs simulated ground truth -------------

void fuzz_closed_form(const ir::Sdfg& sdfg, const SymbolMap& binding) {
  analysis::ClosedFormMetrics bundle = analysis::closed_form_metrics(sdfg);
  ASSERT_TRUE(bundle.exact);
  analysis::ClosedFormValues values =
      analysis::evaluate_closed_form(bundle, binding);

  // Event/execution totals mirror the exact trace planner.
  TracePlan plan = plan_trace(sdfg, binding, SimulationOptions{}, 0);
  ASSERT_TRUE(plan.parallelizable);
  EXPECT_EQ(values.total_events, plan.total_events);
  EXPECT_EQ(values.total_executions, plan.total_executions);

  // Per-container read/write events match the simulated counts.
  MetricPipeline pipeline(full_config());
  PipelineResult simulated = pipeline.run(sdfg, binding);
  EXPECT_EQ(values.total_events, simulated.events);
  EXPECT_EQ(values.total_executions, simulated.executions);
  ASSERT_EQ(values.containers, simulated.containers);
  std::int64_t event_sum = 0;
  for (std::size_t c = 0; c < values.containers.size(); ++c) {
    SCOPED_TRACE(values.containers[c]);
    const auto& reads = simulated.counts.reads[c];
    const auto& writes = simulated.counts.writes[c];
    EXPECT_EQ(values.reads[c],
              std::accumulate(reads.begin(), reads.end(), std::int64_t{0}));
    EXPECT_EQ(values.writes[c],
              std::accumulate(writes.begin(), writes.end(), std::int64_t{0}));
    event_sum += values.reads[c] + values.writes[c];
  }
  EXPECT_EQ(event_sum, values.total_events);

  // Footprint matches the placed layouts.
  AccessTrace trace = simulate(sdfg, binding);
  std::int64_t footprint = 0;
  for (const layout::ConcreteLayout& l : trace.layouts) {
    footprint += l.total_elements() * l.element_size;
  }
  EXPECT_EQ(values.footprint_bytes, footprint);

  // Intensity is derived, not independently computed.
  if (values.movement_bytes > 0) {
    EXPECT_DOUBLE_EQ(values.arithmetic_intensity,
                     static_cast<double>(values.flops) /
                         static_cast<double>(values.movement_bytes));
  } else {
    EXPECT_EQ(values.arithmetic_intensity, 0.0);
  }
}

TEST(IncrementalClosedFormTest, MatchesSimulatedGroundTruth) {
  for (std::int64_t k : {2, 3, 5}) {
    SCOPED_TRACE("hdiff K=" + std::to_string(k));
    fuzz_closed_form(workloads::hdiff(workloads::HdiffVariant::Baseline),
                     {{"I", 4}, {"J", 4}, {"K", k}});
    fuzz_closed_form(workloads::hdiff(workloads::HdiffVariant::Padded),
                     {{"I", 4}, {"J", 4}, {"K", k}});
    fuzz_closed_form(fixed_cap_hdiff(),
                     {{"I", 4}, {"J", 4}, {"K", k}, {"KMAX", 8}});
  }
  fuzz_closed_form(workloads::matmul(), workloads::matmul_fig5());
  fuzz_closed_form(workloads::outer_product(),
                   workloads::outer_product_fig3());
  fuzz_closed_form(workloads::conv2d(), workloads::conv2d_fig4());
  fuzz_closed_form(workloads::bert_encoder(workloads::BertStage::Baseline),
                   workloads::bert_small());
  fuzz_closed_form(workloads::bert_encoder(workloads::BertStage::Fused2),
                   workloads::bert_small());
}

TEST(IncrementalClosedFormTest, MissingBindingThrows) {
  analysis::ClosedFormMetrics bundle = analysis::closed_form_metrics(
      workloads::hdiff(workloads::HdiffVariant::Baseline));
  EXPECT_THROW(analysis::evaluate_closed_form(bundle, {{"I", 4}, {"J", 4}}),
               symbolic::UnboundSymbolError);
}

// --- Session-level integration ----------------------------------------

session::SessionConfig delta_session_config() {
  session::SessionConfig config;
  config.pipeline = full_config();
  return config;
}

TEST(IncrementalSessionTest, DeltaSessionMatchesUncachedEvaluation) {
  const session::SessionConfig config = delta_session_config();
  session::Session session(fixed_cap_hdiff(), config);
  for (std::int64_t k : {3, 4, 7, 5, 3}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    session.set_binding(cap_binding(k));
    expect_identical(*session.metrics(),
                     reference(fixed_cap_hdiff(), cap_binding(k),
                               config.simulation));
  }
}

TEST(IncrementalSessionTest, StepClassificationCounters) {
  session::Session session(fixed_cap_hdiff(), delta_session_config());

  session.set_binding(cap_binding(6));
  session.metrics();  // First evaluation: cold.

  session.set_symbol("K", 7);
  session.metrics();  // Append step: chunk delta.

  session.set_symbol("K", 8);
  session.metrics();  // Another append: chunk delta.

  session.set_symbol("K", 7);
  session.metrics();  // Seen before: served from the artifact cache.

  session.set_symbol("K", 9);
  session.movement_bytes();  // Only the symbolic movement volume touched.

  const session::SessionStats stats = session.stats();
  EXPECT_EQ(stats.steps_cold, 1);
  EXPECT_EQ(stats.steps_chunk_delta, 2);
  EXPECT_EQ(stats.steps_full_hit, 1);
  EXPECT_EQ(stats.steps_symbolic, 1);

  // Counts only: the closed-form counter answers every step of an hdiff
  // drag, so nothing is simulated and each step is symbolic.
  session::SessionConfig counts_only = delta_session_config();
  counts_only.pipeline = PipelineConfig{};
  session::Session drag(fixed_cap_hdiff(), counts_only);
  drag.set_binding(cap_binding(6));
  drag.metrics();
  for (const std::int64_t k : {7, 8, 5}) {
    drag.set_symbol("K", k);
    drag.metrics();
  }
  const session::SessionStats drag_stats = drag.stats();
  EXPECT_EQ(drag_stats.steps_symbolic, 4);
  EXPECT_EQ(drag_stats.steps_cold, 0);
  EXPECT_EQ(drag_stats.steps_chunk_delta, 0);
  EXPECT_EQ(drag_stats.simulate_ms, 0.0);
  EXPECT_GT(drag_stats.metrics_ms, 0.0);

  // conv2d's input dimensions are sums of two parameters (y + ky), so its
  // counts-only step still simulates cold and says why.
  session::Session conv(workloads::conv2d(), counts_only);
  conv.set_binding(workloads::conv2d_fig4());
  conv.metrics();
  const session::SessionStats conv_stats = conv.stats();
  EXPECT_EQ(conv_stats.steps_cold, 1);
  EXPECT_EQ(conv_stats.steps_symbolic, 0);
  MetricPipeline pipeline{PipelineConfig{}};
  DeltaOutcome outcome;
  pipeline.run_delta(workloads::conv2d(), 1, workloads::conv2d_fig4(), {},
                     &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  EXPECT_STREQ(outcome.reason,
               "closed form: subset dimension is not param + constant");
}

}  // namespace
}  // namespace dmv::sim
