#include "dmv/analysis/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dmv/workloads/workloads.hpp"

namespace dmv::analysis {
namespace {

/// Predicted whole-program time: the sum of the per-map estimates.
double total_seconds(const ir::Sdfg& sdfg, const SymbolMap& symbols) {
  double total = 0;
  for (const MapProfile& map : roofline_profile(sdfg, symbols)) {
    total += map.seconds;
  }
  return total;
}

TEST(Roofline, ClassifiesBoundedness) {
  // Matmul with a large K is compute-heavy; the outer product writes a
  // whole element per operation (intensity 1/8 op/byte), which sits
  // under the default machine's ridge (4e9/2e10 = 0.2 op/byte) — so it
  // must come out memory-bound.
  const MachineModel machine;

  ir::Sdfg gemm = workloads::matmul();
  auto gemm_profile =
      roofline_profile(gemm, {{"M", 64}, {"N", 64}, {"K", 512}}, machine);
  ASSERT_EQ(gemm_profile.size(), 1u);
  EXPECT_EQ(gemm_profile[0].bound, Bound::Compute);

  ir::Sdfg outer = workloads::outer_product();
  auto outer_profile =
      roofline_profile(outer, {{"M", 64}, {"N", 64}}, machine);
  ASSERT_EQ(outer_profile.size(), 1u);
  EXPECT_EQ(outer_profile[0].bound, Bound::Memory);
}

TEST(Roofline, SecondsAreTheRooflineMax) {
  ir::Sdfg sdfg = workloads::outer_product();
  auto profile = roofline_profile(sdfg, {{"M", 8}, {"N", 8}});
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_DOUBLE_EQ(
      profile[0].seconds,
      std::max(profile[0].compute_seconds, profile[0].memory_seconds));
  EXPECT_GT(profile[0].seconds, 0);
}

TEST(Roofline, TotalSumsMaps) {
  ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Baseline);
  auto profile = roofline_profile(sdfg, workloads::bert_small());
  EXPECT_EQ(profile.size(), 27u);  // One per top-level map.
  EXPECT_GT(total_seconds(sdfg, workloads::bert_small()), 0);
}

TEST(Roofline, FusionReducesPredictedTime) {
  // The model agrees with the measurement: fused stages predict faster.
  const symbolic::SymbolMap params = workloads::bert_large();
  const double baseline = total_seconds(
      workloads::bert_encoder(workloads::BertStage::Baseline), params);
  const double fused = total_seconds(
      workloads::bert_encoder(workloads::BertStage::Fused2), params);
  EXPECT_LT(fused, baseline);
}

TEST(Roofline, RejectsBadMachine) {
  ir::Sdfg sdfg = workloads::outer_product();
  MachineModel broken;
  broken.flops_per_second = 0;
  EXPECT_THROW(roofline_profile(sdfg, {{"M", 2}, {"N", 2}}, broken),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmv::analysis
