#include <stdexcept>

#include "dmv/analysis/profile.hpp"

namespace dmv::analysis {

std::vector<MapProfile> roofline_profile(const Sdfg& sdfg,
                                         const SymbolMap& symbols,
                                         const MachineModel& machine) {
  if (machine.flops_per_second <= 0 || machine.bytes_per_second <= 0) {
    throw std::invalid_argument("roofline_profile: bad machine model");
  }
  std::vector<MapProfile> profiles;
  for (const MapIntensity& intensity : map_intensities(sdfg, symbols)) {
    MapProfile profile;
    profile.ref = intensity.ref;
    profile.label = intensity.label;
    profile.operations = intensity.operations;
    profile.boundary_bytes = intensity.boundary_bytes;
    profile.compute_seconds =
        intensity.operations / machine.flops_per_second;
    profile.memory_seconds =
        intensity.boundary_bytes / machine.bytes_per_second;
    profile.bound = profile.compute_seconds >= profile.memory_seconds
                        ? Bound::Compute
                        : Bound::Memory;
    profile.seconds =
        std::max(profile.compute_seconds, profile.memory_seconds);
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace dmv::analysis
