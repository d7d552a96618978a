#pragma once

// An orthogonal metric source for the heatmap overlays (paper §IV-B:
// "Profiling data could orthogonally be used as metrics, which would be
// crucial for bottleneck analysis of data-dependent programs").
//
// roofline_profile is an analytic per-map time model in the spirit of
// Kerncraft (which the paper cites as a back-end candidate): each map is
// classified compute- or memory-bound from its operation count and
// boundary traffic under a simple machine model, and gets a predicted
// time.

#include <string>
#include <vector>

#include "dmv/analysis/analysis.hpp"

namespace dmv::analysis {

/// Simple machine model for the roofline estimate.
struct MachineModel {
  double flops_per_second = 4e9;   ///< Scalar core, ~1 op/cycle.
  double bytes_per_second = 2e10;  ///< Sustained memory bandwidth.
};

enum class Bound { Compute, Memory };

struct MapProfile {
  NodeRef ref;
  std::string label;
  double operations = 0;
  double boundary_bytes = 0;
  double compute_seconds = 0;
  double memory_seconds = 0;
  Bound bound = Bound::Memory;
  double seconds = 0;  ///< max(compute, memory): the roofline estimate.
};

/// Per-map roofline profile under a parameter binding.
std::vector<MapProfile> roofline_profile(const Sdfg& sdfg,
                                         const SymbolMap& symbols,
                                         const MachineModel& machine = {});

}  // namespace dmv::analysis
