// Session-layer contract tests: cache accounting, dependency-restricted
// invalidation, byte-budgeted LRU eviction, one evaluation per drag
// step, and thread-count determinism. The overarching invariant
// is that a Session is a pure performance layer — every artifact equals
// the uncached evaluation bit for bit, no matter the cache or thread
// schedule.

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dmv/analysis/analysis.hpp"
#include "dmv/par/par.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/viz/graph_layout.hpp"
#include "dmv/viz/query.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::session {
namespace {

using sim::PipelineResult;
using symbolic::SymbolMap;

SessionConfig test_config() {
  SessionConfig config;
  config.pipeline.counts = true;
  config.pipeline.miss_threshold_lines = 8;
  config.pipeline.element_stats = true;
  config.pipeline.keep_distances = true;
  config.pipeline.movement = true;
  return config;
}

ir::Sdfg small_hdiff() {
  return workloads::hdiff(workloads::HdiffVariant::Baseline);
}

SymbolMap small_binding(std::int64_t k = 3) {
  return SymbolMap{{"I", 4}, {"J", 4}, {"K", k}};
}

void expect_identical(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.counts.reads, b.counts.reads);
  EXPECT_EQ(a.counts.writes, b.counts.writes);
  EXPECT_EQ(a.distances.line_size, b.distances.line_size);
  EXPECT_EQ(a.distances.distances, b.distances.distances);
  EXPECT_EQ(a.misses.threshold_lines, b.misses.threshold_lines);
  EXPECT_EQ(a.misses.element_misses, b.misses.element_misses);
  EXPECT_EQ(a.misses.total.cold, b.misses.total.cold);
  EXPECT_EQ(a.misses.total.capacity, b.misses.total.capacity);
  EXPECT_EQ(a.misses.total.hits, b.misses.total.hits);
  ASSERT_EQ(a.element_stats.size(), b.element_stats.size());
  for (std::size_t c = 0; c < a.element_stats.size(); ++c) {
    EXPECT_EQ(a.element_stats[c].min, b.element_stats[c].min);
    EXPECT_EQ(a.element_stats[c].median, b.element_stats[c].median);
    EXPECT_EQ(a.element_stats[c].max, b.element_stats[c].max);
    EXPECT_EQ(a.element_stats[c].cold_count, b.element_stats[c].cold_count);
  }
  EXPECT_EQ(a.movement.line_size, b.movement.line_size);
  EXPECT_EQ(a.movement.bytes_per_container, b.movement.bytes_per_container);
  EXPECT_EQ(a.movement.total_bytes, b.movement.total_bytes);
}

void expect_same_layout(const viz::StateLayout& a, const viz::StateLayout& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].id, b.nodes[n].id);
    EXPECT_EQ(a.nodes[n].x, b.nodes[n].x);
    EXPECT_EQ(a.nodes[n].y, b.nodes[n].y);
    EXPECT_EQ(a.nodes[n].width, b.nodes[n].width);
    EXPECT_EQ(a.nodes[n].height, b.nodes[n].height);
    EXPECT_EQ(a.nodes[n].collapsed, b.nodes[n].collapsed);
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t e = 0; e < a.edges.size(); ++e) {
    EXPECT_EQ(a.edges[e].edge_index, b.edges[e].edge_index);
    EXPECT_EQ(a.edges[e].x1, b.edges[e].x1);
    EXPECT_EQ(a.edges[e].y1, b.edges[e].y1);
    EXPECT_EQ(a.edges[e].x2, b.edges[e].x2);
    EXPECT_EQ(a.edges[e].y2, b.edges[e].y2);
  }
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
}

// Uncached reference: a fresh pipeline per call, no memoization and no
// delta checkpoint anywhere.
PipelineResult uncached(const ir::Sdfg& sdfg, const SymbolMap& binding,
                        const SessionConfig& config) {
  sim::MetricPipeline pipeline(config.pipeline);
  return pipeline.run(sdfg, binding, config.simulation);
}

TEST(SessionTest, HitMissAccounting) {
  Session session(small_hdiff(), test_config());
  session.set_binding(small_binding(3));

  auto first = session.metrics();
  EXPECT_EQ(session.stats().misses, 1);
  EXPECT_EQ(session.stats().hits, 0);

  auto second = session.metrics();
  EXPECT_EQ(session.stats().misses, 1);
  EXPECT_EQ(session.stats().hits, 1);
  expect_identical(*first, *second);
  // Cached artifacts are shared, not copied.
  EXPECT_EQ(first.get(), second.get());

  session.set_symbol("K", 4);
  auto third = session.metrics();
  EXPECT_EQ(session.stats().misses, 2);

  session.set_symbol("K", 3);
  auto fourth = session.metrics();
  EXPECT_EQ(session.stats().misses, 2);
  EXPECT_EQ(session.stats().hits, 2);
  expect_identical(*first, *fourth);
  EXPECT_NE(third->events, 0);
  EXPECT_GT(session.stats().cache_entries, 0u);
  EXPECT_GT(session.stats().cache_bytes, 0u);

  // Phase breakdown: the two misses ran the pipeline, so wall time
  // accumulated and a partition count was recorded; the cache hits in
  // between added nothing (simulate_ms + metrics_ms covers exactly the
  // evaluated steps).
  EXPECT_GE(session.stats().simulate_ms + session.stats().metrics_ms, 0.0);
  EXPECT_GE(session.stats().metric_partitions, 1);
}

TEST(SessionTest, ResultsMatchUncachedEvaluation) {
  const SessionConfig config = test_config();
  Session session(small_hdiff(), config);
  for (std::int64_t k : {2, 3, 4, 3, 2}) {
    session.set_symbol("I", 4);
    session.set_symbol("J", 4);
    session.set_symbol("K", k);
    expect_identical(*session.metrics(),
                     uncached(small_hdiff(), small_binding(k), config));
  }
}

// lane_width is a bit-identical execution strategy, so it stays out of
// the artifact key: a session that differs only in it is served from the
// shared tier.
TEST(SessionTest, ExecutionStrategyOptionsShareArtifacts) {
  const auto shared = std::make_shared<SharedArtifactCache>();
  SessionConfig first_config = test_config();
  first_config.shared_cache = shared;
  SessionConfig second_config = first_config;
  second_config.simulation.lane_width = 1;

  Session first(small_hdiff(), first_config);
  first.set_binding(small_binding(3));
  const auto computed = first.metrics();
  EXPECT_EQ(first.stats().misses, 1);

  Session second(small_hdiff(), second_config);
  second.set_binding(small_binding(3));
  const auto served = second.metrics();
  EXPECT_EQ(second.stats().shared_hits, 1);
  EXPECT_EQ(second.stats().misses, 0);
  EXPECT_EQ(served.get(), computed.get());

  // An output-relevant metric setting still splits the key.
  SessionConfig third_config = first_config;
  third_config.pipeline.line_size = 32;
  Session third(small_hdiff(), third_config);
  third.set_binding(small_binding(3));
  third.metrics();
  EXPECT_EQ(third.stats().shared_hits, 0);
  EXPECT_EQ(third.stats().misses, 1);
}

TEST(SessionTest, UnusedSymbolDoesNotInvalidate) {
  ir::Sdfg sdfg = small_hdiff();
  sdfg.add_symbol("UNUSED");  // Declared but reaches nothing.
  Session session(std::move(sdfg), test_config());

  // The reachability analysis excludes the unused symbol...
  EXPECT_EQ(session.metric_symbols(),
            (std::set<std::string>{"I", "J", "K"}));

  SymbolMap binding = small_binding(3);
  binding["UNUSED"] = 1;
  session.set_binding(binding);
  auto metrics = session.metrics();
  auto svg = session.graph_svg(0);
  const SessionStats cold = session.stats();

  // ...so moving it must hit every cached artifact: no eviction, no
  // recomputation — the restricted key did not change.
  session.set_symbol("UNUSED", 99);
  auto metrics_again = session.metrics();
  auto svg_again = session.graph_svg(0);
  EXPECT_EQ(session.stats().misses, cold.misses);
  EXPECT_EQ(metrics.get(), metrics_again.get());
  EXPECT_EQ(svg.get(), svg_again.get());

  // A reached symbol does invalidate the metrics...
  session.set_symbol("K", 4);
  session.metrics();
  EXPECT_GT(session.stats().misses, cold.misses);
}

TEST(SessionTest, SymbolicArtifactsSurviveResimulation) {
  Session session(small_hdiff(), test_config());
  session.set_binding(small_binding(3));
  auto volume = session.movement_volume();
  auto layout = session.layout(0);

  for (std::int64_t k : {4, 5, 6}) {
    session.set_symbol("K", k);
    session.metrics();
    // Binding-independent artifacts: same shared object, no recompute.
    EXPECT_EQ(session.movement_volume().get(), volume.get());
    EXPECT_EQ(session.layout(0).get(), layout.get());
  }

  // movement_bytes is keyed by the symbols the volume reaches.
  const std::int64_t at6 = session.movement_bytes();
  const SessionStats before = session.stats();
  EXPECT_EQ(session.movement_bytes(), at6);  // Hit.
  EXPECT_EQ(session.stats().misses, before.misses);
  SymbolMap expected_binding = small_binding(6);
  EXPECT_EQ(at6, volume->evaluate(expected_binding));
}

TEST(SessionTest, ProgramEditChangesContentHash) {
  const SessionConfig config = test_config();
  Session session(small_hdiff(), config);
  session.set_binding(small_binding(3));
  auto baseline = session.metrics();
  auto baseline_volume = session.movement_volume();

  session.edit_program([](ir::Sdfg& sdfg) {
    transforms::permute_dimensions(sdfg, "in_field", {2, 0, 1});
  });
  auto permuted = session.metrics();
  // metrics + movement_volume before the edit, metrics after: the edited
  // program hashes to a new content key, so the third call cannot hit.
  EXPECT_EQ(session.stats().misses, 3);
  EXPECT_EQ(session.stats().hits, 0);
  // The permuted layout changes physical reuse, hence the metrics.
  ir::Sdfg reference = small_hdiff();
  transforms::permute_dimensions(reference, "in_field", {2, 0, 1});
  expect_identical(*permuted, uncached(reference, small_binding(3), config));
  // Symbolic volume is recomputed for the new program version.
  EXPECT_NE(session.movement_volume().get(), baseline_volume.get());
  EXPECT_NE(baseline.get(), permuted.get());

  // Fields the JSON form leaves out are part of the content key too. A
  // shifted buffer start moves elements across cache lines...
  session.edit_program(
      [](ir::Sdfg& sdfg) { sdfg.array("coeff").start_offset = 3; });
  reference.array("coeff").start_offset = 3;
  expect_identical(*session.metrics(),
                   uncached(reference, small_binding(3), config));

  // ...and a folded map redraws the graph.
  const std::size_t unfolded = session.layout(0)->nodes.size();
  session.edit_program([](ir::Sdfg& sdfg) { viz::auto_collapse(sdfg, 1); });
  const auto folded = session.layout(0);
  EXPECT_LT(folded->nodes.size(), unfolded);
  expect_same_layout(
      *folded, viz::layout_state(session.program().states()[0], config.layout));
}

TEST(SessionTest, LruEvictionUnderTinyByteBudget) {
  SessionConfig config = test_config();
  config.cache_budget_bytes = 1;  // Every insert evicts its predecessors.
  Session session(small_hdiff(), config);

  for (std::int64_t k : {2, 3, 4, 2, 3, 4}) {
    session.set_binding(small_binding(k));
    expect_identical(*session.metrics(),
                     uncached(small_hdiff(), small_binding(k), config));
  }
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.misses, 6);  // Nothing survives the budget...
  EXPECT_EQ(stats.hits, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.cache_entries, 1u);  // ...except the newest entry.
}

TEST(SessionTest, DragStepEvaluatesOnlyItsOwnBundle) {
  // A default-config session on a multi-worker pool: a slider drag pays
  // for the bundle it asks for and nothing else. Each new K is one miss
  // and one new cache entry; no other binding is evaluated or inserted.
  par::ThreadScope scope(4);
  Session session(small_hdiff());
  session.set_binding(small_binding(2));
  session.metrics();
  for (std::int64_t k = 3; k <= 8; ++k) {
    const SessionStats before = session.stats();
    session.set_symbol("K", k);
    expect_identical(*session.metrics(),
                     uncached(small_hdiff(), small_binding(k), SessionConfig{}));
    const SessionStats after = session.stats();
    EXPECT_EQ(after.misses, before.misses + 1) << "K=" << k;
    EXPECT_EQ(after.hits, before.hits) << "K=" << k;
    EXPECT_EQ(after.cache_entries, before.cache_entries + 1) << "K=" << k;
    EXPECT_EQ(after.evictions, 0) << "K=" << k;
  }
  EXPECT_EQ(session.stats().cache_entries, 7u);
}

TEST(SessionDeterminismTest, OneVsEightThreadsBitIdentical) {
  // A forward drag, a reversal over visited values and a jump back: the
  // artifacts and every counter are the same at 1, 4 and 8 threads.
  const SessionConfig config = test_config();
  auto sweep = [&](int threads) {
    par::ThreadScope scope(threads);
    Session session(small_hdiff(), config);
    session.set_binding(small_binding(2));
    std::vector<std::shared_ptr<const PipelineResult>> results;
    for (std::int64_t k : {2, 3, 4, 5, 6, 7, 6, 5, 2}) {
      session.set_symbol("K", k);
      results.push_back(session.metrics());
    }
    return std::make_pair(std::move(results), session.stats());
  };

  const auto [serial, serial_stats] = sweep(1);
  EXPECT_GT(serial_stats.hits, 0);
  EXPECT_GT(serial_stats.misses, 0);
  for (int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    const auto [parallel, stats] = sweep(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(*serial[i], *parallel[i]);
    }
    EXPECT_EQ(stats.hits, serial_stats.hits);
    EXPECT_EQ(stats.misses, serial_stats.misses);
    EXPECT_EQ(stats.evictions, serial_stats.evictions);
    EXPECT_EQ(stats.cache_entries, serial_stats.cache_entries);
    EXPECT_EQ(stats.cache_bytes, serial_stats.cache_bytes);
    EXPECT_EQ(stats.steps_full_hit, serial_stats.steps_full_hit);
    EXPECT_EQ(stats.steps_symbolic, serial_stats.steps_symbolic);
    EXPECT_EQ(stats.steps_chunk_delta, serial_stats.steps_chunk_delta);
    EXPECT_EQ(stats.steps_cold, serial_stats.steps_cold);
  }
}

TEST(SessionTest, GraphSvgReusesLayoutAcrossBindings) {
  Session session(small_hdiff(), test_config());
  session.set_binding(small_binding(3));
  auto svg3 = session.graph_svg(0);
  EXPECT_EQ(session.graph_svg(0).get(), svg3.get());  // Same binding: hit.
  session.set_symbol("K", 4);
  auto svg4 = session.graph_svg(0);
  // K reaches the hdiff volumes, so the render is keyed separately (a
  // distinct cache entry even though hdiff's fit-normalized heat happens
  // to produce identical bytes — every volume shares the factor K-1).
  EXPECT_NE(svg3.get(), svg4.get());
  const SessionStats stats = session.stats();
  session.layout(0);
  EXPECT_EQ(session.graph_svg(0).get(), svg4.get());
  // Layout is binding-independent: re-rendering at K=4 reused the cached
  // layout, and asking for it directly adds no miss.
  EXPECT_EQ(session.stats().misses, stats.misses);
}

TEST(SessionTest, SimulationSymbolsReachability) {
  ir::Sdfg sdfg = small_hdiff();
  sdfg.add_symbol("UNUSED");
  const std::set<std::string> reached = analysis::simulation_symbols(sdfg);
  EXPECT_EQ(reached, (std::set<std::string>{"I", "J", "K"}));

  // The expression-level query the analysis is built from.
  const symbolic::Expr expr =
      symbolic::Expr::symbol("I") * 4 + symbolic::Expr::symbol("K");
  EXPECT_TRUE(expr.depends_on("I"));
  EXPECT_TRUE(expr.depends_on("K"));
  EXPECT_FALSE(expr.depends_on("J"));
  EXPECT_TRUE(symbolic::depends_on_any(expr, {"J", "K"}));
  EXPECT_FALSE(symbolic::depends_on_any(expr, {"J", "UNUSED"}));
}

// --- The process-global shared tier ------------------------------------

ArtifactKey tier_key(int id) {
  ArtifactKey key;
  key.program_hash = 7;
  key.binding = {{"K", id}};
  return key;
}

std::shared_ptr<const void> tier_value(int id) {
  return std::make_shared<const int>(id);
}

int tier_id(const std::shared_ptr<const void>& value) {
  return *std::static_pointer_cast<const int>(value);
}

TEST(SessionSharedCacheTest, ByteBudgetBoundsTheWholeTier) {
  SharedArtifactCache::Config config;
  config.budget_bytes = 16 << 10;
  SharedArtifactCache cache(config);
  for (int id = 0; id < 64; ++id) {
    cache.insert(tier_key(id), tier_value(id), 2 << 10);
  }
  const SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, std::size_t{16} << 10);
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.insertions, 64);
  EXPECT_EQ(stats.evictions, 56);
  // LRU order: the eight newest survive.
  EXPECT_EQ(cache.lookup(tier_key(55)), nullptr);
  EXPECT_EQ(tier_id(cache.lookup(tier_key(56))), 56);
  EXPECT_EQ(tier_id(cache.lookup(tier_key(63))), 63);
}

TEST(SessionSharedCacheTest, NewestEntryStaysWhenAloneOverBudget) {
  SharedArtifactCache::Config config;
  config.budget_bytes = 1 << 10;
  SharedArtifactCache cache(config);
  cache.insert(tier_key(1), tier_value(1), 100);
  cache.insert(tier_key(2), tier_value(2), 4 << 10);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, std::size_t{4} << 10);
  std::size_t bytes = 0;
  EXPECT_EQ(tier_id(cache.lookup(tier_key(2), &bytes)), 2);
  EXPECT_EQ(bytes, std::size_t{4} << 10);
  // The next insert evicts it like any other entry.
  cache.insert(tier_key(3), tier_value(3), 100);
  EXPECT_EQ(cache.lookup(tier_key(2)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 100u);
}

TEST(SessionSharedCacheTest, FirstWriterWins) {
  SharedArtifactCache cache;
  cache.insert(tier_key(1), tier_value(10), 64);
  cache.insert(tier_key(1), tier_value(20), 128);
  std::size_t bytes = 0;
  EXPECT_EQ(tier_id(cache.lookup(tier_key(1), &bytes)), 10);
  EXPECT_EQ(bytes, 64u);
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_EQ(cache.stats().bytes, 64u);
}

TEST(SessionSharedCacheTest, ConcurrentLookupsAndInsertsOnOverlappingKeys) {
  // Eight threads race lookups and inserts over 32 keys in a tier that
  // holds 16 of them; the thread sanitizer watches the one lock.
  SharedArtifactCache::Config config;
  config.budget_bytes = 16 * 64;
  SharedArtifactCache cache(config);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOps; ++op) {
        const int id = (op * 7 + t * 5) % 32;
        if (std::shared_ptr<const void> value = cache.lookup(tier_key(id))) {
          if (tier_id(value) != id) wrong.fetch_add(1);
        } else {
          cache.insert(tier_key(id), tier_value(id), 64);
        }
        if (op % 64 == 0) cache.stats();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  const SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOps);
  EXPECT_LE(stats.bytes, config.budget_bytes);
  EXPECT_EQ(stats.bytes, stats.entries * 64);
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::int64_t>(stats.entries));
}

}  // namespace
}  // namespace dmv::session
