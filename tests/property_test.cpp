// Parameterized property sweeps across the whole stack.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "dmv/analysis/analysis.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/viz/heatmap.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"

namespace dmv {
namespace {

// ---------------------------------------------------------------------
// Matmul invariants across sizes.

struct MatmulSize {
  std::int64_t m, k, n;
};

class MatmulSweep : public ::testing::TestWithParam<MatmulSize> {};

TEST_P(MatmulSweep, SimulatedAccessCountsMatchClosedForm) {
  const auto [m, k, n] = GetParam();
  ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap env{{"M", m}, {"K", k}, {"N", n}};
  sim::AccessTrace trace = sim::simulate(sdfg, env);
  const sim::AccessCounts counts = sim::MetricPipeline().run(trace).counts;
  const int a = trace.container_id("A");
  const int b = trace.container_id("B");
  const int c = trace.container_id("C");
  // A[i,k] read once per j; B[k,j] once per i; C[i,j] written once per k.
  for (std::int64_t e = 0; e < m * k; ++e) EXPECT_EQ(counts.reads[a][e], n);
  for (std::int64_t e = 0; e < k * n; ++e) EXPECT_EQ(counts.reads[b][e], m);
  for (std::int64_t e = 0; e < m * n; ++e) {
    EXPECT_EQ(counts.writes[c][e], k);
  }
  // Trace length: 3 events per (i,j,k) iteration.
  EXPECT_EQ(static_cast<std::int64_t>(trace.events.size()), 3 * m * k * n);
}

TEST_P(MatmulSweep, StaticVolumeMatchesSimulatedEventCount) {
  // The §IV logical volume and the §V simulation must agree: total
  // simulated element-accesses == total static edge volume on tasklet
  // adjacent edges.
  const auto [m, k, n] = GetParam();
  ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap env{{"M", m}, {"K", k}, {"N", n}};
  const ir::State& state = sdfg.states()[0];
  std::int64_t static_total = 0;
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    const ir::Node& src = state.node(edge.src);
    const ir::Node& dst = state.node(edge.dst);
    if (src.kind == ir::NodeKind::Tasklet ||
        dst.kind == ir::NodeKind::Tasklet) {
      static_total +=
          analysis::total_edge_elements(state, edge).evaluate(env);
    }
  }
  sim::AccessTrace trace = sim::simulate(sdfg, env);
  EXPECT_EQ(static_total, static_cast<std::int64_t>(trace.events.size()));
}

TEST_P(MatmulSweep, InterpreterMatchesNaiveGemm) {
  const auto [m, k, n] = GetParam();
  ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap env{{"M", m}, {"K", k}, {"N", n}};
  exec::Buffers buffers(sdfg, env);
  std::vector<double> a(m * k), b(k * n);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> value(-1, 1);
  for (auto& x : a) x = value(rng);
  for (auto& x : b) x = value(rng);
  buffers.set_logical("A", a);
  buffers.set_logical("B", b);
  exec::run(sdfg, env, buffers);
  std::vector<double> c = buffers.logical("C");
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[i * k + kk] * b[kk * n + j];
      }
      EXPECT_NEAR(c[i * n + j], acc, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSweep,
                         ::testing::Values(MatmulSize{1, 1, 1},
                                           MatmulSize{2, 3, 4},
                                           MatmulSize{5, 5, 5},
                                           MatmulSize{9, 10, 15},
                                           MatmulSize{1, 8, 3},
                                           MatmulSize{7, 1, 7}));

// ---------------------------------------------------------------------
// Stack-distance invariants on random traces.

class DistanceSweep : public ::testing::TestWithParam<int> {};

sim::AccessTrace random_trace(int seed, std::int64_t elements,
                              std::size_t length) {
  sim::AccessTrace trace;
  layout::ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {elements};
  layout.strides = {1};
  layout.element_size = 8;
  trace.containers = {"A"};
  trace.layouts = {layout};
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> element(0, elements - 1);
  for (std::size_t i = 0; i < length; ++i) {
    sim::AccessEvent event;
    event.container = 0;
    event.flat = element(rng);
    trace.events.push_back(event);
  }
  return trace;
}

// One engine run with `config`'s consumers.
sim::PipelineResult engine(const sim::AccessTrace& trace,
                           sim::PipelineConfig config) {
  return sim::MetricPipeline(config).run(trace);
}

TEST_P(DistanceSweep, FastEqualsNaive) {
  // The engine and the oracle's Olken pass against the naive scan.
  sim::AccessTrace trace = random_trace(GetParam(), 64, 500);
  for (int line : {8, 32, 64, 128}) {
    const std::vector<std::int64_t> naive =
        sim::reference::stack_distances_naive(trace, line).distances;
    EXPECT_EQ(engine(trace, {.line_size = line,
                             .counts = false,
                             .keep_distances = true})
                  .distances.distances,
              naive);
    EXPECT_EQ(sim::reference::stack_distances(trace, line).distances, naive);
  }
}

TEST_P(DistanceSweep, DistanceBoundedByDistinctLines) {
  sim::AccessTrace trace = random_trace(GetParam() + 50, 64, 500);
  const sim::StackDistanceResult result =
      engine(trace, {.line_size = 8, .counts = false, .keep_distances = true})
          .distances;
  std::int64_t colds = 0;
  for (std::int64_t d : result.distances) {
    if (d == sim::kInfiniteDistance) {
      ++colds;
    } else {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, 64);  // Never more than the number of lines.
    }
  }
  EXPECT_GT(colds, 0);
  EXPECT_LE(colds, 64);  // One cold per distinct line at most.
}

TEST_P(DistanceSweep, MissesMonotoneInThreshold) {
  sim::AccessTrace trace = random_trace(GetParam() + 100, 48, 400);
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t threshold = 1; threshold <= 64; threshold *= 2) {
    const std::int64_t misses =
        engine(trace, {.line_size = 8,
                       .counts = false,
                       .miss_threshold_lines = threshold})
            .misses.total.misses();
    EXPECT_LE(misses, previous);
    previous = misses;
  }
}

TEST_P(DistanceSweep, FullyAssociativeSimulatorAgreesExactly) {
  sim::AccessTrace trace = random_trace(GetParam() + 200, 32, 600);
  for (std::int64_t lines : {1, 2, 4, 8, 16}) {
    const sim::PipelineResult result =
        engine(trace, {.line_size = 8,
                       .counts = false,
                       .miss_threshold_lines = lines,
                       .cache = sim::CacheConfig{8, lines * 8, 0}});
    const sim::MissStats& predicted = result.misses.total;
    const sim::MissStats& truth = result.cache.total;
    EXPECT_EQ(predicted.misses(), truth.misses());
    EXPECT_EQ(predicted.hits, truth.hits);
    EXPECT_EQ(predicted.cold, truth.cold);
  }
}

TEST_P(DistanceSweep, CacheSimulatorInvariants) {
  // (Note: set-associative LRU can beat fully-associative LRU on
  // adversarial cyclic streams, so no ordering is asserted between them —
  // only the per-configuration accounting invariants.)
  sim::AccessTrace trace = random_trace(GetParam() + 300, 32, 600);
  std::set<std::int64_t> distinct;
  for (const sim::AccessEvent& event : trace.events) {
    distinct.insert(event.flat);  // Line == element for this geometry.
  }
  for (int ways : {0, 1, 2, 4}) {
    const sim::CacheSimResult result =
        engine(trace, {.counts = false,
                       .cache = sim::CacheConfig{8, 16 * 8, ways}})
            .cache;
    EXPECT_EQ(result.total.accesses(),
              static_cast<std::int64_t>(trace.events.size()));
    EXPECT_EQ(result.total.cold,
              static_cast<std::int64_t>(distinct.size()));
    EXPECT_GE(result.total.misses(), result.total.cold);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceSweep, ::testing::Range(1, 8));

// ---------------------------------------------------------------------
// Heatmap scale properties.

class ScaleSweep
    : public ::testing::TestWithParam<viz::ScalingPolicy> {};

TEST_P(ScaleSweep, NormalizeIsMonotoneAndBounded) {
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> value(0.0, 1e6);
  std::vector<double> values(200);
  for (auto& v : values) v = value(rng);
  viz::HeatmapScale scale = viz::HeatmapScale::fit(values, GetParam());
  std::sort(values.begin(), values.end());
  double previous = -1;
  for (double v : values) {
    const double t = scale.normalize(v);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
    EXPECT_GE(t, previous - 1e-12) << "policy must be monotone";
    previous = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ScaleSweep,
    ::testing::Values(viz::ScalingPolicy::Linear,
                      viz::ScalingPolicy::Exponential,
                      viz::ScalingPolicy::MeanCentered,
                      viz::ScalingPolicy::MedianCentered,
                      viz::ScalingPolicy::Histogram));

// ---------------------------------------------------------------------
// hdiff invariants across sizes.

struct HdiffSize {
  std::int64_t i, j, k;
};

class HdiffSweep : public ::testing::TestWithParam<HdiffSize> {};

TEST_P(HdiffSweep, KernelsAgreeAcrossSizes) {
  const auto [I, J, K] = GetParam();
  workloads::kernels::HdiffData baseline =
      workloads::kernels::make_hdiff_data(I, J, K);
  workloads::kernels::HdiffData fused =
      workloads::kernels::make_hdiff_data(I, J, K);
  workloads::kernels::HdiffData tuned =
      workloads::kernels::make_hdiff_data(I, J, K);
  workloads::kernels::hdiff_baseline(baseline);
  workloads::kernels::hdiff_fused(fused);
  workloads::kernels::hdiff_tuned(tuned);
  for (std::size_t idx = 0; idx < baseline.out_field.size(); ++idx) {
    ASSERT_NEAR(baseline.out_field[idx], fused.out_field[idx], 1e-12);
    ASSERT_NEAR(baseline.out_field[idx], tuned.out_field[idx], 1e-12);
  }
}

TEST_P(HdiffSweep, SimulationEventCountIsExact) {
  const auto [I, J, K] = GetParam();
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  symbolic::SymbolMap env{{"I", I}, {"J", J}, {"K", K}};
  sim::AccessTrace trace = sim::simulate(sdfg, env);
  // 13 in_field reads + 1 coeff read + 1 out write per iteration.
  EXPECT_EQ(static_cast<std::int64_t>(trace.events.size()),
            15 * I * J * K);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HdiffSweep,
                         ::testing::Values(HdiffSize{1, 1, 1},
                                           HdiffSize{2, 3, 2},
                                           HdiffSize{4, 4, 4},
                                           HdiffSize{8, 8, 5},
                                           HdiffSize{3, 9, 2}));

// ---------------------------------------------------------------------
// Scaling analysis consistency: the probed exponent of an explicit
// polynomial matches its symbolic degree.

class DegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(DegreeSweep, ProbedExponentMatchesDegree) {
  const int degree = GetParam();
  symbolic::Expr metric = 1;
  for (int d = 0; d < degree; ++d) {
    metric = metric * symbolic::Expr::symbol("N");
  }
  auto scaling = analysis::scaling_exponents(metric, {{"N", 16}});
  if (degree == 0) {
    EXPECT_TRUE(scaling.empty());  // No free symbols to probe.
  } else {
    ASSERT_EQ(scaling.size(), 1u);
    EXPECT_NEAR(scaling[0].exponent, degree, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeSweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace dmv
