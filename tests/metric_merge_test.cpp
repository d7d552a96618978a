// Metric engine tests.
//
// The engine (sim/metric_merge) partitions every feed — consumer
// segments, set-partitioned exact LRU, two-phase stack distances — and
// merges per-partition state in fixed order into state it carries from
// feed to feed. Its contract is BIT-IDENTITY with the serial oracle of
// standalone_reference.hpp for every PipelineResult field, at any
// (thread, lane, partition, feed-split) combination, across the
// materialized, generating, streaming and delta (replay and resume)
// drives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"
#include "sweep_cases.hpp"

namespace dmv::sim {
namespace {

using reference::expect_matches_standalone;
using reference::expect_results_equal;
using reference::standalone_result;

/// Every consumer on.
PipelineConfig full_config() {
  PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 64;
  config.keep_distances = true;
  config.element_stats = true;
  config.cache = CacheConfig{};
  config.movement = true;
  return config;
}

/// The oracle vs the engine at {1, 2, 4, 8} threads and lane
/// widths {1, 8}, across the materialized, generating, streaming, and
/// delta drives.
void check_bit_identity(const ir::Sdfg& sdfg,
                        const std::vector<symbolic::SymbolMap>& bindings,
                        const std::string& name,
                        const PipelineConfig& config = full_config()) {
  for (std::size_t b = 0; b < bindings.size(); ++b) {
    const symbolic::SymbolMap& binding = bindings[b];
    for (const int lanes : {1, 8}) {
      SimulationOptions options;
      options.lane_width = lanes;
      const AccessTrace trace = simulate(sdfg, binding, options);
      const PipelineResult expected = standalone_result(trace, config);
      for (const int threads : {1, 2, 4, 8}) {
        par::ThreadScope scope(threads);
        const std::string context = name + " binding " + std::to_string(b) +
                                    " lanes " + std::to_string(lanes) +
                                    " threads " + std::to_string(threads);
        MetricPipeline merged(config);
        expect_results_equal(merged.run(trace), expected,
                             context + " run(trace)");
        expect_results_equal(merged.run(sdfg, binding, options), expected,
                             context + " run(sdfg)");
        expect_results_equal(merged.run_streaming(sdfg, binding, options),
                             expected, context + " streaming");
        expect_results_equal(
            merged.run_delta(sdfg, /*program_version=*/7, binding, options),
            expected, context + " delta");
      }
    }
  }
}

/// An interactive slider sweep (sweep_cases.hpp) under its metric set
/// plus the exact cache and movement, and under the cache alone.
void check_sweep(const sweep_cases::Sweep& sweep) {
  PipelineConfig with_cache = sweep_cases::sweep_config();
  with_cache.cache = CacheConfig{};
  with_cache.movement = true;
  PipelineConfig cache_only;
  cache_only.counts = false;
  cache_only.cache = CacheConfig{};
  for (const PipelineConfig& config : {with_cache, cache_only}) {
    check_bit_identity(sweep.sdfg, sweep.bindings, sweep.name, config);
  }
}

TEST(MetricMerge, SerialVsWorkersBitIdentityHdiff) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  check_bit_identity(
      sdfg,
      {symbolic::SymbolMap{{"I", 8}, {"J", 8}, {"K", 4}},
       symbolic::SymbolMap{{"I", 12}, {"J", 10}, {"K", 6}},
       symbolic::SymbolMap{{"I", 16}, {"J", 16}, {"K", 3}}},
      "hdiff");
  check_sweep(sweep_cases::hdiff_sweep());
}

TEST(MetricMerge, SerialVsWorkersBitIdentityBert) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  symbolic::SymbolMap small = workloads::bert_small();
  symbolic::SymbolMap wider = small;
  wider["SM"] = small.at("SM") + 6;
  symbolic::SymbolMap deeper = small;
  deeper["H"] = small.at("H") + 2;
  check_bit_identity(sdfg, {small, wider, deeper}, "bert");
  check_sweep(sweep_cases::bert_sweep());
}

TEST(MetricMerge, SerialVsWorkersBitIdentityMatmul) {
  const ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap fig5 = workloads::matmul_fig5();
  symbolic::SymbolMap narrow = fig5;
  narrow["N"] = 6;
  symbolic::SymbolMap tall = fig5;
  tall["M"] = fig5.at("M") + 9;
  // 24^3: 41,472 events over 1,728 elements, so the consumer pass splits
  // into 2 segments at 2 threads and 3 at 4 and 8 (the matmul program
  // tiling_ablation and cache_model_validation run).
  const symbolic::SymbolMap cube{{"M", 24}, {"K", 24}, {"N", 24}};
  check_bit_identity(sdfg, {fig5, narrow, tall, cube}, "matmul");
}

// Consumer subsets through every drive: configs without distances skip
// phase A, configs without a cache skip the set partitions. hdiff's
// counts-only drives are answered in closed form; conv2d's (y + ky
// input dimensions) still feed the engine's count tally.
TEST(MetricMerge, ConsumerSubsetsThroughEveryDrive) {
  struct Input {
    const char* name;
    ir::Sdfg sdfg;
    symbolic::SymbolMap binding;
  };
  const Input inputs[] = {
      {"hdiff", workloads::hdiff(workloads::HdiffVariant::Baseline),
       {{"I", 16}, {"J", 16}, {"K", 4}}},
      {"conv2d", workloads::conv2d(), workloads::conv2d_fig4()},
  };
  PipelineConfig counts_only;
  PipelineConfig cache_only;
  cache_only.counts = false;
  cache_only.cache = CacheConfig{};
  PipelineConfig misses_only;
  misses_only.counts = false;
  misses_only.miss_threshold_lines = 16;
  for (const Input& input : inputs) {
    const AccessTrace trace = simulate(input.sdfg, input.binding);
    for (const PipelineConfig& config :
         {counts_only, cache_only, misses_only}) {
      const PipelineResult expected = standalone_result(trace, config);
      for (const int threads : {1, 8}) {
        par::ThreadScope scope(threads);
        const std::string context =
            std::string(input.name) + " threads " + std::to_string(threads);
        MetricPipeline pipeline(config);
        expect_results_equal(pipeline.run(trace), expected, context);
        expect_results_equal(pipeline.run(input.sdfg, input.binding),
                             expected, context);
        expect_results_equal(
            pipeline.run_streaming(input.sdfg, input.binding), expected,
            context);
        expect_results_equal(pipeline.run_delta(input.sdfg, 1, input.binding),
                             expected, context);
      }
    }
  }
}

// Set-partition boundary shapes: one set (fully associative), direct
// mapped, more sets than touched lines, and a cache line size different
// from the distance line size.
TEST(MetricMerge, SetPartitionBoundaries) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 12}, {"J", 12}, {"K", 4}};
  struct Shape {
    const char* name;
    CacheConfig cache;
    int line_size;
  };
  const Shape shapes[] = {
      {"fully-associative", CacheConfig{64, 4096, 0}, 64},
      {"direct-mapped", CacheConfig{64, 4096, 1}, 64},
      {"sets-exceed-lines", CacheConfig{64, 1 << 16, 1}, 64},
      {"associativity-1-small", CacheConfig{64, 128, 1}, 64},
      {"cache-line-differs", CacheConfig{32, 8192, 4}, 64},
  };
  for (const Shape& shape : shapes) {
    PipelineConfig config = full_config();
    config.line_size = shape.line_size;
    config.cache = shape.cache;
    const AccessTrace trace = simulate(sdfg, binding);
    const PipelineResult expected = standalone_result(trace, config);
    for (const int threads : {1, 2, 8}) {
      par::ThreadScope scope(threads);
      MetricPipeline merged(config);
      expect_results_equal(merged.run(trace), expected,
                           std::string(shape.name) + " threads " +
                               std::to_string(threads));
    }
  }
}

// Hand-built traces: random layouts and event streams, including the
// degenerate sizes the segment planner must not mishandle.
TEST(MetricMerge, HandBuiltTraceFuzz) {
  std::mt19937 rng(20260809u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{63},
                              std::size_t{1000}, std::size_t{5000}}) {
    AccessTrace trace;
    const int containers = 1 + static_cast<int>(rng() % 3);
    std::int64_t base = 0;
    for (int c = 0; c < containers; ++c) {
      layout::ConcreteLayout layout;
      layout.name = "c" + std::to_string(c);
      const std::int64_t elements = 16 + static_cast<std::int64_t>(rng() % 240);
      layout.shape = {elements};
      layout.strides = {1};
      layout.element_size = (rng() % 2) ? 8 : 4;
      layout.base_address = base;
      base += layout.allocated_bytes() + 64;
      trace.containers.push_back(layout.name);
      trace.layouts.push_back(layout);
    }
    for (std::size_t i = 0; i < n; ++i) {
      AccessEvent event;
      event.container = static_cast<int>(rng() % containers);
      event.flat = static_cast<std::int64_t>(
          rng() % trace.layouts[event.container].shape[0]);
      event.is_write = (rng() % 4) == 0;
      event.execution = static_cast<std::int64_t>(i);
      trace.events.push_back(event);
    }
    trace.executions = static_cast<std::int64_t>(n);

    const PipelineResult expected = standalone_result(trace, full_config());
    for (const int threads : {1, 4, 8}) {
      par::ThreadScope scope(threads);
      MetricPipeline merged(full_config());
      expect_results_equal(merged.run(trace), expected,
                           "n=" + std::to_string(n) + " threads " +
                               std::to_string(threads));
    }
  }
}

// Containers 2^40 bytes apart: the line span (2^34 lines) is far past
// the 2^26-slot dense limit, so the last-seen tables and the cache's
// seen set run in hash mode — one partition at 1 thread, segmented at 8.
TEST(MetricMerge, SparseLineSpanUsesHashTables) {
  AccessTrace trace;
  for (int c = 0; c < 2; ++c) {
    layout::ConcreteLayout layout;
    layout.name = "far" + std::to_string(c);
    layout.shape = {512};
    layout.strides = {1};
    layout.element_size = 8;
    layout.base_address = static_cast<std::int64_t>(c) << 40;
    trace.containers.push_back(layout.name);
    trace.layouts.push_back(layout);
  }
  std::mt19937 rng(20261016u);
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    AccessEvent event;
    event.container = static_cast<int>(rng() % 2);
    event.flat = static_cast<std::int64_t>(rng() % 512);
    event.is_write = (rng() % 3) == 0;
    event.execution = static_cast<std::int64_t>(i);
    trace.events.push_back(event);
  }
  trace.executions = static_cast<std::int64_t>(n);
  const PipelineResult expected = standalone_result(trace, full_config());
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    MetricPipeline pipeline(full_config());
    expect_results_equal(pipeline.run(trace), expected,
                         "threads " + std::to_string(threads));
  }
}

// Inside a pool task every parallel construct serializes, so the engine
// runs as one partition there, consuming the trace (86,400 events) in
// windows — with results equal to a top-level call.
TEST(MetricMerge, RunInsidePoolTaskEqualsTopLevel) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const AccessTrace trace =
      simulate(sdfg, symbolic::SymbolMap{{"I", 24}, {"J", 24}, {"K", 10}});
  par::ThreadScope scope(8);
  MetricPipeline top(full_config());
  const PipelineResult expected = top.run(trace);
  EXPECT_GT(top.last_timings().partitions, 1);
  std::vector<PipelineResult> nested(2);
  std::vector<int> partitions(2, 0);
  par::parallel_for(2, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      MetricPipeline pipeline(full_config());
      nested[i] = pipeline.run(trace);
      partitions[i] = pipeline.last_timings().partitions;
    }
  });
  for (std::size_t i = 0; i < nested.size(); ++i) {
    expect_results_equal(nested[i], expected, "task " + std::to_string(i));
    EXPECT_EQ(partitions[i], 1);
  }
}

// The delta engine at 8 threads: a segmented cold feed, then append-only
// steps that resume the carried state — one long enough to segment on
// top of that state (K 3 -> 12), one short suffix fed serially (12 ->
// 13) — each matching the oracle field by field.
TEST(MetricMerge, DeltaResumesOnSegmentedState) {
  const ir::Sdfg sdfg = workloads::fixed_capacity(
      workloads::hdiff(workloads::HdiffVariant::Reordered), {{"K", "KMAX"}});
  auto binding = [](std::int64_t k) {
    return symbolic::SymbolMap{{"I", 20}, {"J", 20}, {"K", k}, {"KMAX", 16}};
  };
  par::ThreadScope scope(8);
  MetricPipeline pipeline(full_config());
  DeltaOutcome outcome;
  const PipelineResult cold =
      pipeline.run_delta(sdfg, 1, binding(3), {}, &outcome);
  EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold);
  EXPECT_GT(pipeline.last_timings().partitions, 1);
  expect_matches_standalone(cold, simulate(sdfg, binding(3)), full_config(),
                            "cold K=3");
  for (const std::int64_t k : {12, 13}) {
    const PipelineResult step =
        pipeline.run_delta(sdfg, 1, binding(k), {}, &outcome);
    EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta) << "K=" << k;
    EXPECT_TRUE(outcome.resumed) << "K=" << k;
    expect_matches_standalone(step, simulate(sdfg, binding(k)), full_config(),
                              "resumed K=" + std::to_string(k));
  }
}

// A snapshot's and a finish()'s per-element vectors are reserved on the
// calling thread and filled on the pool, one task per vector, and each
// container's element stats are finalized in a task of their own. The
// drag program at I=J=32, KMAX=40 (about 936,000 values per result) and
// bert_encoder with SM under a capacity of 20 (40 containers, about
// 89,000 values) are above the engine's cutoff for building a result on
// the calling thread. Every step of a run_delta chain (cold, two
// resumed, a replay that lowers the slider, no change) and one
// run(sdfg), which takes finish(), must equal the oracle at 1 and 8
// threads and inside a pool task.
TEST(MetricMerge, SnapshotVectorsBuiltOnThePool) {
  PipelineConfig config;  // Counts on by default.
  config.miss_threshold_lines = 512;
  config.element_stats = true;
  struct Chain {
    std::string name;
    ir::Sdfg sdfg;
    std::vector<symbolic::SymbolMap> steps;  // The last one also run().
    /// Each step's expected path and `resumed` (unchecked when empty).
    std::vector<std::pair<DeltaOutcome::Path, bool>> outcomes;
    std::vector<PipelineResult> expected;
  };
  auto drag = [](std::int64_t k) {
    return symbolic::SymbolMap{{"I", 32}, {"J", 32}, {"K", k}, {"KMAX", 40}};
  };
  auto bert = [](std::int64_t sm) {
    symbolic::SymbolMap binding = workloads::bert_small();
    binding["SM"] = sm;
    binding["SMAX"] = 20;
    return binding;
  };
  using Path = DeltaOutcome::Path;
  std::vector<Chain> chains = {
      {"drag",
       workloads::fixed_capacity(
           workloads::hdiff(workloads::HdiffVariant::Reordered),
           {{"K", "KMAX"}}),
       {drag(5), drag(6), drag(7), drag(4), drag(4)},
       {{Path::kCold, false},
        {Path::kChunkDelta, true},
        {Path::kChunkDelta, true},
        {Path::kChunkDelta, false},
        {Path::kNoChange, false}},
       {}},
      {"bert",
       workloads::fixed_capacity(
           workloads::bert_encoder(workloads::BertStage::Baseline),
           {{"SM", "SMAX"}}),
       {bert(12), bert(16), bert(20), bert(14), bert(14)},
       {},
       {}},
  };
  for (Chain& chain : chains) {
    for (const symbolic::SymbolMap& binding : chain.steps) {
      chain.expected.push_back(
          standalone_result(simulate(chain.sdfg, binding), config));
    }
  }
  struct Run {
    std::vector<PipelineResult> results;  // Each step, then run().
    std::vector<DeltaOutcome> outcomes;
  };
  auto run_chain = [&](const Chain& chain) {
    Run run;
    MetricPipeline pipeline(config);
    for (const symbolic::SymbolMap& binding : chain.steps) {
      DeltaOutcome outcome;
      run.results.push_back(
          pipeline.run_delta(chain.sdfg, 1, binding, {}, &outcome));
      run.outcomes.push_back(outcome);
    }
    run.results.push_back(pipeline.run(chain.sdfg, chain.steps.back()));
    return run;
  };
  auto check = [&](const Chain& chain, const Run& run,
                   const std::string& where) {
    ASSERT_EQ(run.results.size(), chain.steps.size() + 1) << where;
    for (std::size_t s = 0; s <= chain.steps.size(); ++s) {
      const std::size_t step = std::min(s, chain.steps.size() - 1);
      const std::string context =
          chain.name + " " + where +
          (s < chain.steps.size() ? " step " + std::to_string(s) : " run");
      expect_results_equal(run.results[s], chain.expected[step], context);
      if (s < chain.outcomes.size()) {
        EXPECT_EQ(run.outcomes[s].path, chain.outcomes[s].first) << context;
        EXPECT_EQ(run.outcomes[s].resumed, chain.outcomes[s].second)
            << context;
      }
    }
  };
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    for (const Chain& chain : chains) {
      check(chain, run_chain(chain), "threads " + std::to_string(threads));
    }
  }
  par::ThreadScope scope(8);
  std::vector<Run> nested(chains.size());
  par::parallel_tasks(chains.size(), [&](std::size_t c) {
    nested[c] = run_chain(chains[c]);
  });
  for (std::size_t c = 0; c < chains.size(); ++c) {
    check(chains[c], nested[c], "in a pool task");
  }
}

// Phase timing observability: partitions report the engine's use, and
// the breakdown is populated for every drive mode.
TEST(MetricMerge, PhaseTimingsReportPartitions) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 16}, {"J", 16}, {"K", 4}};

  {
    par::ThreadScope serial(1);
    MetricPipeline pipeline(full_config());
    pipeline.run(sdfg, binding);
    EXPECT_EQ(pipeline.last_timings().partitions, 1);
    EXPECT_GE(pipeline.last_timings().metrics_ms, 0.0);
  }
  {
    par::ThreadScope scope(8);
    MetricPipeline pipeline(full_config());
    const AccessTrace trace = simulate(sdfg, binding);
    pipeline.run(trace);
    EXPECT_GT(pipeline.last_timings().partitions, 1);
    // Served cold steps: run_delta's cold path is the engine too.
    pipeline.run_delta(sdfg, 1, binding);
    EXPECT_GT(pipeline.last_timings().partitions, 1);
    pipeline.run_streaming(sdfg, binding);
    // Streaming interleaves generation and consumption: the whole cost
    // collapses into simulate_ms, and the feed runs as one partition.
    EXPECT_EQ(pipeline.last_timings().partitions, 1);
    EXPECT_EQ(pipeline.last_timings().metrics_ms, 0.0);
  }
}

}  // namespace
}  // namespace dmv::sim
