#pragma once

// Multi-level cache hierarchy backend (paper §VIII-a).
//
// The paper's §V-F estimator is a single general-purpose model and the
// Discussion explicitly invites "different, more hardware-specific
// back-ends ... while leveraging the same visual exploration and
// analysis methods". This module provides such a backend: an inclusive
// multi-level LRU hierarchy (e.g. L1 + L2 + L3) simulated exactly over an
// AccessTrace. Per-level hit/miss statistics convert into per-level
// physical traffic, refining the single-level movement estimate
// (PipelineResult::movement) into a bandwidth breakdown per memory
// level.

#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// Geometry of one cache level.
struct CacheLevel {
  std::string name = "L1";
  std::int64_t total_size = 32 * 1024;
  int ways = 8;  ///< 0 = fully associative.
};

struct HierarchyConfig {
  int line_size = 64;
  /// Ordered from closest to the core (L1 first). Must not be empty;
  /// sizes should be non-decreasing (validated).
  std::vector<CacheLevel> levels;

  /// A typical three-level desktop hierarchy scaled by `divisor` —
  /// matching the paper's advice to scale the model with the
  /// parameterized problem size (§V-F b).
  static HierarchyConfig typical(std::int64_t divisor = 1);
};

/// Per-level outcome counts. An access "reaches" level k if it missed
/// levels 0..k-1; `hits[k]` counts accesses satisfied at level k, and
/// accesses missing the last level go to memory.
struct HierarchyResult {
  HierarchyConfig config;
  /// hits[level][container]; level-major.
  std::vector<std::vector<std::int64_t>> hits;
  /// Accesses that missed every level, per container.
  std::vector<std::int64_t> memory_accesses;
  std::vector<std::string> containers;

  std::int64_t total_hits(int level) const;
  std::int64_t total_memory_accesses() const;
  /// Bytes transferred INTO level `level` from the level below it (or
  /// from memory for the last level): misses at `level` times line size.
  std::int64_t bytes_into_level(int level) const;
};

/// Exact inclusive LRU simulation of the hierarchy over the trace.
HierarchyResult simulate_hierarchy(const AccessTrace& trace,
                                   const HierarchyConfig& config);

}  // namespace dmv::sim
