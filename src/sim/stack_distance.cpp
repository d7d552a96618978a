#include <algorithm>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

DistanceHistogram distance_histogram(const AccessTrace& trace,
                                     const StackDistanceResult& result,
                                     int container, std::int64_t flat) {
  DistanceHistogram histogram;
  const std::size_t n = trace.events.size();
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  for (std::size_t i = 0; i < n; ++i) {
    if (containers[i] != container) continue;
    if (flat >= 0 && flats[i] != flat) continue;
    const std::int64_t distance = result.distances[i];
    if (distance == kInfiniteDistance) {
      ++histogram.cold_misses;
    } else {
      histogram.distances.push_back(distance);
    }
  }
  std::sort(histogram.distances.begin(), histogram.distances.end());
  return histogram;
}

}  // namespace dmv::sim
