// End-to-end tests of the paper's two analysis workflows:
//   §VI-A — global view on BERT: heatmap -> bottleneck edges -> fusion ->
//           re-analysis shows less data movement.
//   §VI-B — local view on hdiff: simulate -> stack distances -> misses ->
//           each tuning step improves the metrics that drove it.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "dmv/analysis/analysis.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv {
namespace {

// The local view at 64-byte lines: one engine run with `config`'s
// consumers.
sim::PipelineResult local_view(const sim::AccessTrace& trace,
                               sim::PipelineConfig config) {
  config.line_size = 64;
  return sim::MetricPipeline(config).run(trace);
}

TEST(BertGlobalWorkflow, FusionReducesMovementAndLowIntensityMaps) {
  const symbolic::SymbolMap params = workloads::bert_large();

  double previous_volume = std::numeric_limits<double>::max();
  int previous_low_intensity = 1 << 20;
  for (auto stage : {workloads::BertStage::Baseline,
                     workloads::BertStage::Fused1,
                     workloads::BertStage::Fused2}) {
    ir::Sdfg sdfg = workloads::bert_encoder(stage);
    const double volume = static_cast<double>(
        analysis::total_movement_bytes(sdfg).evaluate(params));
    EXPECT_LT(volume, previous_volume);
    previous_volume = volume;

    // Fig 6 center/right: the count of low-arithmetic-intensity maps
    // (the green nodes the median-centered overlay highlights) drops.
    int low_intensity = 0;
    for (const analysis::MapIntensity& intensity :
         analysis::map_intensities(sdfg, params)) {
      if (intensity.intensity < 0.25) ++low_intensity;
    }
    EXPECT_LE(low_intensity, previous_low_intensity);
    previous_low_intensity = low_intensity;
  }
}

TEST(BertGlobalWorkflow, HottestEdgesAreTheFusedOnes) {
  // The engineer clicks the red edges; those edges reference the
  // softmax-pipeline transients that the first fusion set removes.
  ir::Sdfg baseline = workloads::bert_encoder(workloads::BertStage::Baseline);
  auto ranked =
      analysis::rank_edges_by_volume(baseline, workloads::bert_large());
  ASSERT_GE(ranked.size(), 20u);
  std::set<std::string> hot_data;
  for (std::size_t i = 0; i < 20; ++i) hot_data.insert(ranked[i].data);
  // The 4-D attention intermediates dominate the logical traffic.
  bool found_attention_intermediate = false;
  for (const char* name : {"S", "Ss", "D", "E", "Pattn"}) {
    if (hot_data.contains(name)) found_attention_intermediate = true;
  }
  EXPECT_TRUE(found_attention_intermediate);
}

TEST(BertGlobalWorkflow, FusedStagesDropTheFusedTransients) {
  ir::Sdfg fused = workloads::bert_encoder(workloads::BertStage::Fused2);
  EXPECT_FALSE(fused.has_array("D"));
  EXPECT_FALSE(fused.has_array("Fb"));
  EXPECT_FALSE(fused.has_array("F2b"));
  // Non-fusible intermediates remain.
  EXPECT_TRUE(fused.has_array("S"));
  EXPECT_TRUE(fused.has_array("E"));
}

TEST(BertGlobalWorkflow, RenderAllStages) {
  // The Fig 6 panels render without error and shrink with fusion.
  std::size_t previous_size = std::numeric_limits<std::size_t>::max();
  for (auto stage : {workloads::BertStage::Baseline,
                     workloads::BertStage::Fused2}) {
    ir::Sdfg sdfg = workloads::bert_encoder(stage);
    auto volumes = analysis::edge_volumes(sdfg);
    std::vector<double> values;
    for (const auto& volume : volumes) {
      values.push_back(static_cast<double>(
          volume.bytes.evaluate(workloads::bert_large())));
    }
    viz::HeatmapScale scale =
        viz::HeatmapScale::fit(values, viz::ScalingPolicy::MeanCentered);
    viz::GraphRenderOptions options;
    for (std::size_t i = 0; i < volumes.size(); ++i) {
      options.edge_heat[volumes[i].ref.edge_index] =
          scale.normalize(values[i]);
    }
    std::string svg = render_state_svg(sdfg.states()[0], options);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_LT(svg.size(), previous_size);
    previous_size = svg.size();
  }
}

TEST(HdiffLocalWorkflow, EachTuningStepReducesMisses) {
  // Fig 7: cache misses and physical movement drop with the reshape and
  // the loop reorder (threshold: 8 lines = a scaled L1).
  const symbolic::SymbolMap params = workloads::hdiff_local();
  std::int64_t previous_misses = std::numeric_limits<std::int64_t>::max();
  std::int64_t previous_bytes = std::numeric_limits<std::int64_t>::max();
  for (auto variant :
       {workloads::HdiffVariant::Baseline, workloads::HdiffVariant::Reshaped,
        workloads::HdiffVariant::Reordered}) {
    ir::Sdfg sdfg = workloads::hdiff(variant);
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    const sim::PipelineResult local = local_view(
        trace, {.counts = false, .miss_threshold_lines = 8, .movement = true});
    const sim::MissReport& report = local.misses;
    const sim::MovementEstimate& movement = local.movement;
    EXPECT_LT(report.total.misses(), previous_misses);
    EXPECT_LT(movement.total_bytes, previous_bytes);
    previous_misses = report.total.misses();
    previous_bytes = movement.total_bytes;
  }
}

TEST(HdiffLocalWorkflow, ReshapeNearlyHalvesInFieldTraffic) {
  // §VI-B: "almost halves the amount of data being requested from main
  // memory for in_field".
  const symbolic::SymbolMap params = workloads::hdiff_local();
  auto in_field_misses = [&](workloads::HdiffVariant variant) {
    ir::Sdfg sdfg = workloads::hdiff(variant);
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    const sim::MissReport report =
        local_view(trace, {.counts = false, .miss_threshold_lines = 8}).misses;
    return report.per_container[trace.container_id("in_field")].misses();
  };
  const std::int64_t before =
      in_field_misses(workloads::HdiffVariant::Baseline);
  const std::int64_t after =
      in_field_misses(workloads::HdiffVariant::Reshaped);
  EXPECT_LT(after, before);
  EXPECT_NEAR(static_cast<double>(after) / static_cast<double>(before),
              0.5, 0.2);
}

TEST(HdiffLocalWorkflow, PaddingAlignsRowsAndImprovesUtilization) {
  // Fig 8c: before padding some rows wrap across cache lines; after,
  // none do, and same-iteration line utilization improves.
  const symbolic::SymbolMap params = workloads::hdiff_local();

  ir::Sdfg unpadded = workloads::hdiff(workloads::HdiffVariant::Reordered);
  ir::Sdfg padded = workloads::hdiff(workloads::HdiffVariant::Padded);

  layout::ConcreteLayout unpadded_layout =
      layout::ConcreteLayout::from(unpadded.array("in_field"), params);
  layout::ConcreteLayout padded_layout =
      layout::ConcreteLayout::from(padded.array("in_field"), params);
  EXPECT_FALSE(
      layout::rows_with_line_wraparound(unpadded_layout, 2, 64).empty());
  EXPECT_TRUE(
      layout::rows_with_line_wraparound(padded_layout, 2, 64).empty());

  auto utilization = [&](ir::Sdfg& sdfg) {
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    return sim::iteration_line_stats(trace,
                                     trace.container_id("in_field"), 64)
        .mean_line_utilization;
  };
  EXPECT_GT(utilization(padded), utilization(unpadded));
}

TEST(HdiffLocalWorkflow, ScalingAnalysisFindsAllThreeParameters) {
  // §IV-D on hdiff: movement is linear in each of I, J, K.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  auto scaling =
      analysis::movement_scaling(sdfg, workloads::hdiff_local());
  ASSERT_EQ(scaling.size(), 3u);
  for (const analysis::SymbolScaling& s : scaling) {
    EXPECT_NEAR(s.exponent, 1.0, 0.25) << s.symbol;
  }
}

TEST(CacheModelValidation, FullyAssociativePredictionTracksSetAssociative) {
  // §V-F: McKinley&Temam / Beyls&D'Hollander — conflict misses are a
  // minority, so the fully-associative stack-distance prediction is a
  // good estimate for low-associativity caches.
  for (auto variant : {workloads::HdiffVariant::Baseline,
                       workloads::HdiffVariant::Reordered}) {
    ir::Sdfg sdfg = workloads::hdiff(variant);
    sim::AccessTrace trace = sim::simulate(sdfg, workloads::hdiff_local());

    const std::int64_t lines = 16;
    for (int ways : {4, 8}) {
      const sim::PipelineResult result = local_view(
          trace, {.counts = false,
                  .miss_threshold_lines = lines,
                  .cache = sim::CacheConfig{64, lines * 64, ways}});
      const sim::MissStats& predicted = result.misses.total;
      const sim::MissStats& truth = result.cache.total;
      const double error = std::abs(static_cast<double>(predicted.misses()) -
                                    static_cast<double>(truth.misses())) /
                           static_cast<double>(truth.misses());
      EXPECT_LT(error, 0.35) << "variant/ways " << ways;
    }
  }
}

TEST(FullPipeline, SerializeAnalyzeRenderHdiff) {
  // One pass through everything a session would do, end to end.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  ir::validate_or_throw(sdfg);
  EXPECT_GT(ir::to_json(sdfg).size(), 100u);
  EXPECT_GT(viz::outline(sdfg).size(), 10u);

  sim::AccessTrace trace = sim::simulate(sdfg, workloads::hdiff_local());
  const sim::PipelineResult local =
      local_view(trace, {.counts = true, .keep_distances = true});
  const sim::AccessCounts& counts = local.counts;
  const int in = trace.container_id("in_field");

  // Flattened-time heatmap (Fig 4b style) on in_field.
  std::vector<std::int64_t> totals = counts.total(in);
  std::vector<double> values(totals.begin(), totals.end());
  viz::HeatmapScale scale =
      viz::HeatmapScale::fit(values, viz::ScalingPolicy::MedianCentered);
  std::vector<double> heat(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    heat[i] = scale.normalize(values[i]);
  }
  viz::TileRenderOptions options;
  options.heat = &heat;
  options.counts = &totals;
  std::string svg = render_tiles_svg(trace.layouts[in], options);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);

  // Reuse-distance histogram (Fig 5b style).
  sim::DistanceHistogram histogram =
      sim::distance_histogram(trace, local.distances, in);
  viz::HistogramRenderOptions histogram_options;
  histogram_options.cold_misses = histogram.cold_misses;
  std::string histogram_svg =
      viz::render_histogram_svg(histogram.distances, histogram_options);
  EXPECT_NE(histogram_svg.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace dmv
