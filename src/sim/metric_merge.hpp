#pragma once

// The metric engine (internal; include only from src/sim).
//
// One resumable engine drives every MetricPipeline consumer: begin() a
// trace header, feed() events in trace order as often as needed,
// snapshot() a finalized copy at any point, finish() at the end. Each
// feed is split into independently computable, deterministically
// mergeable pieces:
//
//   * line-id derivation — a vectorization-friendly affine kernel over
//     the SoA columns (per-container base/element-size tables, shift
//     instead of hardware division for power-of-two line sizes);
//   * stack distances — either one fused last-seen Olken loop on the
//     carried Fenwick tree, or two phases: a parallel previous-occurrence
//     pass (per-slice local last-seen tables stitched left to right into
//     the carried table), then parallel Fenwick counting over disjoint
//     event segments, each segment rebuilding the exact serial Fenwick
//     state at its start from the carried marks plus the prev array;
//   * exact LRU cache — partitioned by cache set: a line maps to
//     exactly one set, so each worker scans the whole line column but
//     touches only its sets and per-set LRU order is preserved exactly;
//   * order-insensitive consumers (counts, miss classification,
//     element-stat pairs) — per-segment tallies reduced into the carried
//     tally by integer addition in ascending segment order.
//
// Exactness, not approximation: every piece computes the same integers
// a serial event-by-event pass computes, and every reduction is an
// order-fixed integer merge — so results are bit-identical to that
// serial pass at any (thread, segment, partition, feed-split)
// combination. See docs/simulation.md for the feed/resume contract.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "metric_detail.hpp"

namespace dmv::sim::merge {

// Fenwick tree over event positions with an int32 node type (a node
// counts marks, and marks never outnumber distinct lines) and raw marks
// kept beside it, so capacity can grow and a segment's start state can
// be rebuilt from another tree in O(capacity) with no per-mark walks.
class Fenwick32 {
 public:
  /// Zeroes every mark and guarantees capacity for positions [0, n).
  void reset(std::size_t n) {
    if (n > capacity_) capacity_ = std::max<std::size_t>(n, 1024);
    marks_.assign(capacity_, 0);
    tree_.assign(capacity_ + 1, 0);
  }

  /// Grows capacity to cover positions [0, n), keeping every mark.
  void ensure(std::size_t n) {
    if (n <= capacity_) return;
    std::size_t grown = std::max<std::size_t>(capacity_ * 2, 1024);
    while (grown < n) grown *= 2;
    capacity_ = grown;
    marks_.resize(capacity_, 0);
    rebuild();
  }

  /// Becomes `base` advanced by `count` events at positions [from,
  /// from + count) whose previous occurrences are prev[0, count): marks
  /// every new position, unmarks every prev target — the exact serial
  /// invariant "j carries a mark iff j is the most recent occurrence of
  /// its line". Capacity covers positions [0, n).
  void advance_from(const Fenwick32& base, std::size_t from,
                    const std::int64_t* prev, std::size_t count,
                    std::size_t n) {
    reset(n);
    std::copy(base.marks_.begin(),
              base.marks_.begin() + static_cast<std::ptrdiff_t>(from),
              marks_.begin());
    std::fill(marks_.begin() + static_cast<std::ptrdiff_t>(from),
              marks_.begin() + static_cast<std::ptrdiff_t>(from + count), 1);
    for (std::size_t j = 0; j < count; ++j) {
      if (prev[j] >= 0) marks_[static_cast<std::size_t>(prev[j])] = 0;
    }
    rebuild();
  }

  void add(std::size_t position, int delta) {
    marks_[position] = static_cast<std::int8_t>(marks_[position] + delta);
    for (std::size_t i = position + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Sum of marks in [0, position].
  std::int64_t prefix(std::size_t position) const {
    std::int64_t sum = 0;
    for (std::size_t i = position + 1; i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

  /// Sum of marks in [from, to] (inclusive).
  std::int64_t range(std::size_t from, std::size_t to) const {
    if (from > to) return 0;
    return prefix(to) - (from == 0 ? 0 : prefix(from - 1));
  }

 private:
  // Linear build from the marks: leaf values, then parent propagation.
  void rebuild() {
    tree_.assign(capacity_ + 1, 0);
    for (std::size_t i = 1; i <= capacity_; ++i) tree_[i] += marks_[i - 1];
    for (std::size_t i = 1; i <= capacity_; ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent <= capacity_) tree_[parent] += tree_[i];
    }
  }

  std::vector<std::int32_t> tree_;  ///< 1-based; size capacity_ + 1.
  std::vector<std::int8_t> marks_;
  std::size_t capacity_ = 0;
};

/// Balanced contiguous split of [0, n): at most max_parts parts, none
/// smaller than min_grain (fewer parts for small n, never 0 for n > 0).
inline std::size_t segment_count(std::size_t n, std::size_t max_parts,
                                 std::size_t min_grain) {
  if (n == 0) return 0;
  if (min_grain == 0) min_grain = 1;
  const std::size_t cap = (n + min_grain - 1) / min_grain;
  return std::max<std::size_t>(1, std::min(max_parts, cap));
}

/// k-th boundary of the balanced split of [0, n) into `parts` parts:
/// segment k is [segment_begin(n, parts, k), segment_begin(n, parts,
/// k + 1)). Depends only on (n, parts).
inline std::size_t segment_begin(std::size_t n, std::size_t parts,
                                 std::size_t k) {
  return n / parts * k + std::min(k, n % parts);
}

// Line -> most recent position table (-1 = not seen). Dense over a line
// range when that range is at most 2^26 slots, hash map otherwise
// (hand-built traces can place containers at arbitrary addresses).
class LastSeen {
 public:
  void reset_dense(std::int64_t lo, std::int64_t span);
  void reset_hash(std::size_t expected);
  /// Widens the table so every line in [lo, hi] has a slot, keeping
  /// every entry (re-based dense, or converted to hash when too wide).
  void cover(std::int64_t lo, std::int64_t hi);
  /// Stores `value` for `line`, returning the previous value.
  std::int64_t exchange(std::int64_t line, std::int64_t value) {
    std::int64_t& slot =
        dense_ ? values_[static_cast<std::size_t>(line - lo_)]
               : hash_.try_emplace(line, -1).first->second;
    const std::int64_t previous = slot;
    slot = value;
    return previous;
  }
  std::int64_t get(std::int64_t line) const {
    if (dense_) return values_[static_cast<std::size_t>(line - lo_)];
    const auto it = hash_.find(line);
    return it == hash_.end() ? -1 : it->second;
  }
  bool dense() const { return dense_; }
  std::int64_t lo() const { return lo_; }
  std::int64_t span() const { return static_cast<std::int64_t>(values_.size()); }
  std::int64_t* dense_slots() { return values_.data(); }

 private:
  bool dense_ = true;
  std::int64_t lo_ = 0;
  std::vector<std::int64_t> values_;
  std::unordered_map<std::int64_t, std::int64_t> hash_;
};

// One distinct line's first and last occurrence inside a slice — the
// only state the left-to-right stitch needs from a slice.
struct Boundary {
  std::int64_t line = 0;
  std::int64_t first = 0;  ///< Position relative to the feed's start.
  std::int64_t last = 0;   ///< Absolute position.
};

// Order-insensitive consumer state: the engine's carried tally, and the
// private tally of each extra consumer segment of a feed (merged into
// the carried one by integer addition; finite element-stat pairs
// concatenate in ascending segment order, which is serial event order).
struct Tally {
  std::vector<std::vector<std::int64_t>> reads;           // [container][elem]
  std::vector<std::vector<std::int64_t>> writes;          // [container][elem]
  std::vector<std::vector<std::int64_t>> element_misses;  // [container][elem]
  std::vector<std::vector<std::int64_t>> cold;            // [container][elem]
  std::vector<MissStats> misses;                          // [container]
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
      finite;                                             // [container]
};

// Exact LRU state of the contiguous set range owned by one cache
// partition. Small associativities use a flat MRU-first array per set
// (line ids are non-negative, -1 marks an empty way); larger ones fall
// back to a list + hash structure.
struct WideSet {
  std::list<std::int64_t> lru;
  std::unordered_map<std::int64_t, std::list<std::int64_t>::iterator> where;
};
struct CachePartition {
  std::vector<MissStats> per_container;
  std::vector<std::int64_t> small;  ///< [local_set * ways + way].
  std::vector<WideSet> wide;        ///< [local_set].
  /// Lines ever resident in this partition's sets, when the engine's
  /// shared dense `seen` bytes would be too sparse.
  std::unordered_set<std::int64_t> sparse_seen;
};

// Per-event line-id derivation with a vectorization-friendly fast path:
// when every layout is contiguous at a non-negative base and the line
// size is a power of two, line = (base[c] + flat * esize[c]) >> shift —
// a branchless affine gather loop the compiler can unroll and
// vectorize, with no hardware division. Other layouts take the general
// ContainerAddressing path per event.
class LineDeriver {
 public:
  void reset(const std::vector<layout::ConcreteLayout>& layouts,
             int line_size);
  /// out[i] for i in [begin, end); returns the (min, max) line written.
  std::pair<std::int64_t, std::int64_t> derive(const std::int32_t* containers,
                                               const std::int64_t* flats,
                                               std::size_t begin,
                                               std::size_t end,
                                               std::int64_t* out) const;

 private:
  std::vector<detail::ContainerAddressing> addressing_;
  std::vector<std::int64_t> base_;
  std::vector<std::int64_t> esize_;
  int line_size_ = 64;
  int shift_ = -1;  ///< >= 0 selects the affine fast path.
};

// The resumable metric engine. Partition counts are picked per feed
// from its event count, the events already carried, the element count,
// the thread count and par::in_parallel_region() (inside a pool task
// everything runs as one partition, in windows of 2^16 events); cache
// partitions are fixed at begin() because they carry per-set LRU state.
// Results never depend on any of those choices.
class Engine {
 public:
  /// Starts a new trace: clears all carried state. `fan_out` = false
  /// runs every feed as one partition on the calling thread.
  /// MetricPipeline::run_streaming sets it because its feeds run beside
  /// chunk generation in one round of pool tasks: usually inside a pool
  /// task, where par::in_parallel_region() already keeps a feed whole,
  /// but on the calling thread when the pool is busy with another
  /// caller's job, where nothing else would.
  void begin(const PipelineConfig& config, const AccessTrace& header,
             bool fan_out = true);

  /// Appends `count` events — the columns' [0, count) — at positions
  /// [events(), events() + count), advancing every enabled consumer.
  void feed(const std::int32_t* containers, const std::int64_t* flats,
            const std::uint8_t* writes, std::size_t count);

  /// Finalized copy of the state after every event fed so far; the
  /// carried state is untouched, so feeding can continue.
  PipelineResult snapshot(std::int64_t executions);
  /// Finalized result, moved out of the engine; begin() before reuse.
  PipelineResult finish(std::int64_t executions);

  std::size_t events() const { return events_; }
  /// Largest worker-partition count of the most recent feed
  /// (1 = everything ran as one partition).
  int partitions() const { return partitions_; }

 private:
  std::size_t workers() const;
  template <typename Task>
  void run_tasks(std::size_t count, bool inline_only, Task&& task);
  void derive_lines(const std::int32_t* containers, const std::int64_t* flats,
                    std::size_t count);
  void previous_occurrences(std::size_t count, std::size_t worker_count);
  void local_prev(std::size_t begin, std::size_t end, std::size_t slot,
                  bool dense);
  void stitch_slice(std::size_t slot);
  void cover_seen(std::int64_t lo, std::int64_t hi);
  void count_distances(std::size_t count, std::size_t parts,
                       std::size_t part, std::int64_t* distances);
  void cache_partition_pass(const std::int32_t* containers, std::size_t count,
                            std::size_t part);
  std::size_t consume(const std::int32_t* containers,
                      const std::int64_t* flats, const std::uint8_t* writes,
                      const std::int64_t* distances, std::size_t count,
                      std::size_t worker_count, bool inline_only);
  PipelineResult collect(std::int64_t executions, bool move);

  PipelineConfig config_;
  std::vector<std::string> containers_;
  std::vector<layout::ConcreteLayout> layouts_;  ///< Owned: derivers point here.
  std::vector<std::int64_t> elements_;           ///< Per container.
  bool fan_out_ = true;
  bool shared_lines_ = true;  ///< Cache uses the distance line size.
  std::size_t events_ = 0;
  int partitions_ = 1;

  // --- Carried state -------------------------------------------------
  LastSeen last_;          ///< Distance line -> most recent position.
  std::int64_t distinct_ = 0;
  Fenwick32 fenwick_;      ///< Marks at each line's most recent position.
  std::vector<std::int64_t> kept_distances_;  ///< keep_distances only.
  Tally tally_;
  detail::CacheGeometry geometry_;
  std::vector<CachePartition> cache_parts_;
  std::vector<std::uint8_t> seen_;  ///< Cache line ever resident (dense).
  std::int64_t seen_lo_ = 0;
  bool seen_dense_ = true;

  // --- Per-feed scratch ----------------------------------------------
  LineDeriver deriver_;
  LineDeriver cache_deriver_;
  std::vector<std::int64_t> lines_;        ///< Distance line ids (and cache's
                                           ///< when the line sizes agree).
  std::vector<std::int64_t> cache_lines_;  ///< Only for a second line size.
  /// Phase A's absolute previous occurrences, overwritten in place by
  /// the distances (unless keep_distances).
  std::vector<std::int64_t> prev_;
  std::vector<LastSeen> slot_seen_;              // Per slot.
  std::vector<std::vector<Boundary>> boundaries_;  // Per slot.
  std::vector<Fenwick32> fenwicks_;  // Per extra distance segment.
  std::vector<Tally> partials_;      // Per extra consumer segment.
  /// Element-stat counting sort, per container.
  std::vector<std::vector<std::int64_t>> offsets_;
  std::vector<std::vector<std::int64_t>> sorted_;
};

}  // namespace dmv::sim::merge
