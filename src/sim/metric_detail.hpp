#pragma once

// Internal machinery of the metric engine and the line-id table (not
// installed; include only from src/sim).

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim::detail {

// Set-associative geometry of the metric engine's cache consumer;
// throws std::invalid_argument for a config no cache can have.
struct CacheGeometry {
  std::int64_t ways = 0;
  std::int64_t num_sets = 1;
};

inline CacheGeometry cache_geometry(const CacheConfig& config) {
  if (config.line_size <= 0 || config.total_size <= 0) {
    throw std::invalid_argument("CacheConfig: non-positive line or cache size");
  }
  const std::int64_t total_lines = config.total_size / config.line_size;
  if (total_lines <= 0) {
    throw std::invalid_argument("CacheConfig: cache smaller than a line");
  }
  CacheGeometry geometry;
  geometry.ways = config.ways;
  if (geometry.ways == 0) {
    geometry.ways = total_lines;  // Fully associative.
  } else {
    geometry.num_sets = total_lines / geometry.ways;
    if (geometry.num_sets <= 0) {
      throw std::invalid_argument(
          "CacheConfig: associativity exceeds cache size");
    }
  }
  return geometry;
}

// Per-container address decoding, hoisted out of the per-event loops.
// The common case (dense row-major, no start offset) maps flat -> byte
// address with one multiply; padded/permuted layouts take the general
// unflatten + strided-dot path.
struct ContainerAddressing {
  std::int64_t base = 0;
  std::int64_t element_size = 8;
  bool contiguous = false;
  const layout::ConcreteLayout* layout = nullptr;

  static ContainerAddressing from(const layout::ConcreteLayout& layout) {
    ContainerAddressing addressing;
    addressing.base = layout.base_address;
    addressing.element_size = layout.element_size;
    addressing.layout = &layout;
    bool contiguous = layout.start_offset == 0;
    std::int64_t stride = 1;
    for (int d = layout.rank() - 1; d >= 0 && contiguous; --d) {
      contiguous = layout.strides[static_cast<std::size_t>(d)] == stride;
      stride *= layout.shape[static_cast<std::size_t>(d)];
    }
    addressing.contiguous = contiguous;
    return addressing;
  }

  std::int64_t byte_address(std::int64_t flat) const {
    if (contiguous) return base + flat * element_size;
    return layout->byte_address(layout->unflatten(flat));
  }

  std::int64_t line_of(std::int64_t flat, int line_size) const {
    return byte_address(flat) / line_size;
  }
};

inline std::vector<ContainerAddressing> addressing_for(
    const std::vector<layout::ConcreteLayout>& layouts) {
  std::vector<ContainerAddressing> addressing;
  addressing.reserve(layouts.size());
  for (const layout::ConcreteLayout& layout : layouts) {
    addressing.push_back(ContainerAddressing::from(layout));
  }
  return addressing;
}

/// Dense line-id range spanned by the placed layouts at `line_size`:
/// [first, first + span). Empty layouts contribute nothing.
inline void line_range_of(const std::vector<layout::ConcreteLayout>& layouts,
                          int line_size, std::int64_t& first,
                          std::int64_t& span) {
  first = 0;
  std::int64_t last = -1;  // Exclusive end line.
  bool any = false;
  for (const layout::ConcreteLayout& layout : layouts) {
    const std::int64_t bytes = layout.allocated_bytes();
    if (bytes <= 0) continue;
    const std::int64_t begin = layout.base_address / line_size;
    const std::int64_t end =
        (layout.base_address + bytes - 1) / line_size + 1;
    if (!any) {
      first = begin;
      last = end;
      any = true;
    } else {
      first = std::min(first, begin);
      last = std::max(last, end);
    }
  }
  span = any ? last - first : 0;
}

/// Grows arena-kept scratch to hold `size` values: by at least doubling,
/// so a drag or sweep of growing sizes rarely reallocates it. Its values
/// are dead, so a reallocation copies nothing.
inline void reserve_scratch(std::vector<std::int64_t>& scratch,
                            std::size_t size) {
  if (scratch.capacity() >= size) return;
  scratch.clear();
  scratch.reserve(std::max(size, 2 * scratch.capacity()));
}

/// Finalizes per-element distance statistics from the (flat, distance)
/// pairs of ONE container, collected in event order, via counting sort:
/// O(elements + pairs) memory, per-element order identical to the
/// serial scan. Leaves cold_count to the caller.
/// `offsets` and `sorted` are caller-owned scratch (arena-reusable).
/// Nothing here allocates when the caller has reserved `elements`
/// values in each of stats' min, median and max and in `offsets`, and
/// pairs.size() in `sorted`, so the metric engine runs one call per
/// container as a pool task on memory from its own thread's arena.
inline void finalize_element_stats(std::int64_t elements,
                                   const std::vector<std::pair<
                                       std::int64_t, std::int64_t>>& pairs,
                                   std::vector<std::int64_t>& offsets,
                                   std::vector<std::int64_t>& sorted,
                                   ElementDistanceStats& stats) {
  // offsets[e] starts as the first slot of element e's slice; the
  // scatter advances it, so afterwards offsets[e] is the slice END and
  // the slice begins at offsets[e - 1] (0 for e == 0).
  offsets.assign(static_cast<std::size_t>(elements), 0);
  for (const auto& [flat, distance] : pairs) {
    ++offsets[static_cast<std::size_t>(flat)];
  }
  std::int64_t running = 0;
  for (std::size_t e = 0; e < offsets.size(); ++e) {
    const std::int64_t count = offsets[e];
    offsets[e] = running;
    running += count;
  }
  sorted.resize(pairs.size());
  for (const auto& [flat, distance] : pairs) {
    sorted[static_cast<std::size_t>(
        offsets[static_cast<std::size_t>(flat)]++)] = distance;
  }
  stats.min.assign(static_cast<std::size_t>(elements), kInfiniteDistance);
  stats.median.assign(static_cast<std::size_t>(elements), kInfiniteDistance);
  stats.max.assign(static_cast<std::size_t>(elements), kInfiniteDistance);
  par::parallel_for(
      static_cast<std::size_t>(elements), 4096,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const std::size_t from =
              e == 0 ? 0 : static_cast<std::size_t>(offsets[e - 1]);
          const std::size_t to = static_cast<std::size_t>(offsets[e]);
          if (from == to) continue;
          std::sort(sorted.begin() + from, sorted.begin() + to);
          stats.min[e] = sorted[from];
          stats.max[e] = sorted[to - 1];
          stats.median[e] = sorted[from + (to - from) / 2];
        }
      });
}

}  // namespace dmv::sim::detail
