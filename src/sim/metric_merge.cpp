#include "metric_merge.hpp"

#include <algorithm>
#include <limits>

#include "dmv/par/par.hpp"

namespace dmv::sim::merge {

namespace {

// Worker-partition caps. All of them bound setup/merge overhead, none
// of them affect results (every phase is exact at any partition count):
//   * distance segments each rebuild a Fenwick tree over every event
//     fed so far,
//   * cache partitions each scan the whole line column once,
//   * consumer segments each hold per-element partial arrays.
constexpr std::size_t kMaxDistanceSegments = 8;
constexpr std::size_t kMaxCachePartitions = 8;
constexpr std::size_t kMaxConsumerSegments = 8;
constexpr std::size_t kMaxPrevSegments = 16;
// Below this many events per segment, more segments only add overhead;
// a whole feed this small runs its tasks on the calling thread.
constexpr std::size_t kMinSegmentEvents = 4096;
// A consumer segment needs this many events per element to pay for its
// private per-element arrays (and to keep their memory a small fraction
// of the trace's).
constexpr std::size_t kEventsPerElement = 8;
// A feed that runs as one partition is consumed in windows of this many
// events, so its line and distance columns stay small.
constexpr std::size_t kWindowEvents = std::size_t{1} << 16;
// Beyond this many slots, per-line tables switch to hash maps.
constexpr std::int64_t kMaxDenseSpan = std::int64_t{1} << 26;
// Dense slice-local last-seen tables are capped at this many total
// entries across all live slots (hash fallback above).
constexpr std::int64_t kLocalDenseEntries = std::int64_t{1} << 25;
// Flat MRU-first array LRU up to this associativity; list + hash above.
constexpr std::int64_t kSmallWays = 64;
// Line derivation block size.
constexpr std::size_t kDeriveGrain = std::size_t{1} << 14;
// Below this many values in all, a result's vectors are filled and a
// tally's arrays zeroed on the calling thread: a pool job's dispatch
// would cost more than it saves (docs/simulation.md).
constexpr std::size_t kMinParallelValues = std::size_t{1} << 15;

std::size_t threads() {
  return static_cast<std::size_t>(std::max(1, par::num_threads()));
}

using MinMax = std::pair<std::int64_t, std::int64_t>;

void add_stats(MissStats& into, const MissStats& from) {
  into.cold += from.cold;
  into.capacity += from.capacity;
  into.hits += from.hits;
}

// Runs task(0) .. task(count - 1), which write `values` values in all:
// on the pool, or on the calling thread below kMinParallelValues.
template <typename Task>
void fill_tasks(std::size_t count, std::size_t values, Task&& task) {
  if (values < kMinParallelValues) {
    for (std::size_t t = 0; t < count; ++t) task(t);
  } else {
    par::parallel_tasks(count, task);
  }
}

// Zeroed per-element arrays for every enabled consumer (finite pairs
// cleared, capacity kept). The calling thread reserves every array, so
// its memory comes from this thread's malloc arena, and one task zeroes
// each array, so fresh pages are first touched across the pool.
void reset_tally(const PipelineConfig& config,
                 const std::vector<std::int64_t>& elements, Tally& tally) {
  const std::size_t num_containers = elements.size();
  std::vector<std::pair<std::vector<std::int64_t>*, std::size_t>> arrays;
  std::size_t values = 0;
  auto zero = [&](std::vector<std::vector<std::int64_t>>& per_container) {
    per_container.resize(num_containers);
    for (std::size_t c = 0; c < num_containers; ++c) {
      const std::size_t size = static_cast<std::size_t>(elements[c]);
      per_container[c].clear();  // A reallocating reserve copies nothing.
      per_container[c].reserve(size);
      arrays.emplace_back(&per_container[c], size);
      values += size;
    }
  };
  if (config.counts) {
    zero(tally.reads);
    zero(tally.writes);
  }
  if (config.miss_threshold_lines > 0) {
    tally.misses.assign(num_containers, {});
    zero(tally.element_misses);
  }
  if (config.element_stats) {
    zero(tally.cold);
    tally.finite.resize(num_containers);
    for (auto& pairs : tally.finite) pairs.clear();
  }
  fill_tasks(arrays.size(), values, [&](std::size_t t) {
    arrays[t].first->assign(arrays[t].second, 0);
  });
}

// One consumer segment: tight fissioned loops per enabled consumer over
// the SoA columns [s, e), accumulating into `tally`.
void consume_segment(const PipelineConfig& config,
                     const std::int32_t* containers,
                     const std::int64_t* flats, const std::uint8_t* writes,
                     const std::int64_t* distances, std::size_t s,
                     std::size_t e, Tally& tally) {
  if (config.counts) {
    const std::size_t num_containers = tally.reads.size();
    // Branch-free column select: rw[0] = per-container read arrays,
    // rw[1] = write arrays.
    std::vector<std::int64_t*> rw(2 * num_containers);
    for (std::size_t c = 0; c < num_containers; ++c) {
      rw[c] = tally.reads[c].data();
      rw[num_containers + c] = tally.writes[c].data();
    }
    for (std::size_t i = s; i < e; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      ++rw[(writes[i] ? num_containers : 0) + c]
          [static_cast<std::size_t>(flats[i])];
    }
  }
  if (config.miss_threshold_lines > 0) {
    const std::int64_t threshold = config.miss_threshold_lines;
    for (std::size_t i = s; i < e; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      const std::int64_t distance = distances[i];
      MissStats& stats = tally.misses[c];
      if (distance == kInfiniteDistance) {
        ++stats.cold;
        ++tally.element_misses[c][static_cast<std::size_t>(flats[i])];
      } else if (distance >= threshold) {
        ++stats.capacity;
        ++tally.element_misses[c][static_cast<std::size_t>(flats[i])];
      } else {
        ++stats.hits;
      }
    }
  }
  if (config.element_stats) {
    for (std::size_t i = s; i < e; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      const std::int64_t distance = distances[i];
      if (distance == kInfiniteDistance) {
        ++tally.cold[c][static_cast<std::size_t>(flats[i])];
      } else {
        tally.finite[c].emplace_back(flats[i], distance);
      }
    }
  }
}

}  // namespace

void LastSeen::reset_dense(std::int64_t lo, std::int64_t span) {
  dense_ = true;
  lo_ = lo;
  values_.assign(static_cast<std::size_t>(span), -1);
  hash_.clear();
}

void LastSeen::reset_hash(std::size_t expected) {
  dense_ = false;
  values_.clear();
  hash_.clear();
  hash_.reserve(expected);
}

void LastSeen::cover(std::int64_t lo, std::int64_t hi) {
  if (!dense_ || lo > hi) return;
  if (!values_.empty()) {
    if (lo >= lo_ && hi < lo_ + span()) return;
    lo = std::min(lo, lo_);
    hi = std::max(hi, lo_ + span() - 1);
  }
  if (hi - lo + 1 > kMaxDenseSpan) {
    std::unordered_map<std::int64_t, std::int64_t> hash;
    for (std::size_t j = 0; j < values_.size(); ++j) {
      if (values_[j] >= 0) {
        hash.emplace(lo_ + static_cast<std::int64_t>(j), values_[j]);
      }
    }
    reset_hash(0);
    hash_ = std::move(hash);
    return;
  }
  std::vector<std::int64_t> widened(static_cast<std::size_t>(hi - lo + 1), -1);
  std::copy(values_.begin(), values_.end(),
            widened.begin() + static_cast<std::ptrdiff_t>(lo_ - lo));
  values_ = std::move(widened);
  lo_ = lo;
}

void LineDeriver::reset(const std::vector<layout::ConcreteLayout>& layouts,
                        int line_size) {
  addressing_ = detail::addressing_for(layouts);
  line_size_ = line_size;
  base_.resize(layouts.size());
  esize_.resize(layouts.size());
  bool fast = line_size > 0 && (line_size & (line_size - 1)) == 0;
  for (std::size_t c = 0; c < addressing_.size(); ++c) {
    base_[c] = addressing_[c].base;
    esize_[c] = addressing_[c].element_size;
    fast = fast && addressing_[c].contiguous && addressing_[c].base >= 0;
  }
  shift_ = -1;
  if (fast) {
    int shift = 0;
    while ((1 << shift) != line_size) ++shift;
    shift_ = shift;
  }
}

MinMax LineDeriver::derive(const std::int32_t* containers,
                           const std::int64_t* flats, std::size_t begin,
                           std::size_t end, std::int64_t* out) const {
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  if (shift_ >= 0) {
    const std::int64_t* base = base_.data();
    const std::int64_t* esize = esize_.data();
    const int shift = shift_;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      const std::int64_t line = (base[c] + flats[i] * esize[c]) >> shift;
      out[i] = line;
      lo = std::min(lo, line);
      hi = std::max(hi, line);
    }
    return {lo, hi};
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t line =
        addressing_[static_cast<std::size_t>(containers[i])].line_of(
            flats[i], line_size_);
    out[i] = line;
    lo = std::min(lo, line);
    hi = std::max(hi, line);
  }
  return {lo, hi};
}

std::size_t Engine::workers() const {
  return fan_out_ && !par::in_parallel_region() ? threads() : 1;
}

template <typename Task>
void Engine::run_tasks(std::size_t count, bool inline_only, Task&& task) {
  if (!fan_out_ || inline_only) {
    for (std::size_t t = 0; t < count; ++t) task(t);
    return;
  }
  par::parallel_tasks(count, task);
}

void Engine::begin(const PipelineConfig& config, const AccessTrace& header,
                   bool fan_out) {
  config_ = config;
  fan_out_ = fan_out;
  containers_ = header.containers;
  layouts_ = header.layouts;
  elements_.clear();
  for (const layout::ConcreteLayout& layout : layouts_) {
    elements_.push_back(layout.total_elements());
  }
  events_ = 0;
  partitions_ = 1;
  shared_lines_ = !config_.cache || config_.cache->line_size == config_.line_size;

  if (config_.needs_distances() || (config_.cache && shared_lines_)) {
    deriver_.reset(layouts_, config_.line_size);
  }
  if (config_.needs_distances()) {
    std::int64_t lo = 0, span = 0;
    detail::line_range_of(layouts_, config_.line_size, lo, span);
    if (span <= kMaxDenseSpan) {
      last_.reset_dense(lo, span);
    } else {
      last_.reset_hash(0);
    }
    distinct_ = 0;
    fenwick_.reset(0);
    kept_distances_.clear();
  }
  reset_tally(config_, elements_, tally_);

  if (config_.cache) {
    geometry_ = detail::cache_geometry(*config_.cache);
    if (!shared_lines_) cache_deriver_.reset(layouts_, config_.cache->line_size);
    std::int64_t lo = 0, span = 0;
    detail::line_range_of(layouts_, config_.cache->line_size, lo, span);
    seen_dense_ = span <= kMaxDenseSpan;
    seen_lo_ = lo;
    seen_.assign(seen_dense_ ? static_cast<std::size_t>(span) : 0, 0);
    const std::size_t parts = std::max<std::size_t>(
        1, std::min({workers(), kMaxCachePartitions,
                     static_cast<std::size_t>(geometry_.num_sets)}));
    cache_parts_.resize(parts);
    const std::size_t sets = static_cast<std::size_t>(geometry_.num_sets);
    for (std::size_t p = 0; p < parts; ++p) {
      CachePartition& part = cache_parts_[p];
      const std::size_t set_count =
          segment_begin(sets, parts, p + 1) - segment_begin(sets, parts, p);
      part.per_container.assign(layouts_.size(), {});
      part.sparse_seen.clear();
      part.small.clear();
      part.wide.clear();
      if (geometry_.ways <= kSmallWays) {
        part.small.assign(set_count * static_cast<std::size_t>(geometry_.ways),
                          -1);
      } else {
        part.wide.resize(set_count);
      }
    }
  }
}

void Engine::cover_seen(std::int64_t lo, std::int64_t hi) {
  if (!seen_dense_ || lo > hi) return;
  const std::int64_t span = static_cast<std::int64_t>(seen_.size());
  if (!seen_.empty()) {
    if (lo >= seen_lo_ && hi < seen_lo_ + span) return;
    lo = std::min(lo, seen_lo_);
    hi = std::max(hi, seen_lo_ + span - 1);
  }
  if (hi - lo + 1 <= kMaxDenseSpan) {
    std::vector<std::uint8_t> widened(static_cast<std::size_t>(hi - lo + 1),
                                      0);
    std::copy(seen_.begin(), seen_.end(),
              widened.begin() + static_cast<std::ptrdiff_t>(seen_lo_ - lo));
    seen_ = std::move(widened);
    seen_lo_ = lo;
    return;
  }
  // Too wide for dense bytes: hand every seen line to the partition
  // that owns its set.
  const std::size_t sets = static_cast<std::size_t>(geometry_.num_sets);
  const std::size_t parts = cache_parts_.size();
  for (std::size_t j = 0; j < seen_.size(); ++j) {
    if (!seen_[j]) continue;
    const std::int64_t line = seen_lo_ + static_cast<std::int64_t>(j);
    const std::size_t set = static_cast<std::size_t>(line % geometry_.num_sets);
    std::size_t p = 0;
    while (set >= segment_begin(sets, parts, p + 1)) ++p;
    cache_parts_[p].sparse_seen.insert(line);
  }
  seen_dense_ = false;
  seen_.clear();
}

void Engine::derive_lines(const std::int32_t* containers,
                          const std::int64_t* flats, std::size_t count) {
  const bool distance_lines =
      config_.needs_distances() || (config_.cache && shared_lines_);
  const bool cache_lines = config_.cache && !shared_lines_;
  if (!distance_lines && !cache_lines) return;
  if (distance_lines) lines_.resize(count);
  if (cache_lines) cache_lines_.resize(count);
  const std::size_t blocks = par::detail::block_count(count, kDeriveGrain);
  const MinMax empty{std::numeric_limits<std::int64_t>::max(),
                     std::numeric_limits<std::int64_t>::min()};
  std::vector<MinMax> ranges(blocks, empty);
  std::vector<MinMax> cache_ranges(blocks, empty);
  run_tasks(blocks, blocks <= 1, [&](std::size_t b) {
    const std::size_t begin = b * kDeriveGrain;
    const std::size_t end = std::min(count, begin + kDeriveGrain);
    if (distance_lines) {
      ranges[b] = deriver_.derive(containers, flats, begin, end, lines_.data());
    }
    if (cache_lines) {
      cache_ranges[b] = cache_deriver_.derive(containers, flats, begin, end,
                                              cache_lines_.data());
    }
  });
  // Hand-built traces may address outside their placed layouts: widen
  // the dense tables to every observed line.
  auto fold = [&](const std::vector<MinMax>& parts) {
    MinMax all = empty;
    for (const MinMax& part : parts) {
      all.first = std::min(all.first, part.first);
      all.second = std::max(all.second, part.second);
    }
    return all;
  };
  if (distance_lines) {
    const MinMax range = fold(ranges);
    if (config_.needs_distances()) last_.cover(range.first, range.second);
    if (config_.cache && shared_lines_) cover_seen(range.first, range.second);
  }
  if (cache_lines) {
    const MinMax range = fold(cache_ranges);
    cover_seen(range.first, range.second);
  }
}

// Phase A, slice-local half: prev_[i] for every event of [begin, end)
// whose line occurred earlier in the slice; first occurrences become
// boundaries for the stitch.
void Engine::local_prev(std::size_t begin, std::size_t end,
                        std::size_t slot, bool dense) {
  LastSeen& seen = slot_seen_[slot];
  std::vector<Boundary>& boundary = boundaries_[slot];
  boundary.clear();
  if (dense) {
    seen.reset_dense(last_.lo(), last_.span());
  } else {
    seen.reset_hash(end - begin);
  }
  const std::int64_t base = static_cast<std::int64_t>(events_);
  std::int64_t* prev = prev_.data();
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t line = lines_[i];
    const std::int64_t prior =
        seen.exchange(line, base + static_cast<std::int64_t>(i));
    if (prior >= 0) {
      prev[i] = prior;
    } else {
      boundary.push_back({line, static_cast<std::int64_t>(i), 0});
    }
  }
  for (Boundary& b : boundary) b.last = seen.get(b.line);
}

// Phase A, ordered half: resolves the slice's first occurrences against
// the carried last-seen table and advances it past the slice.
void Engine::stitch_slice(std::size_t slot) {
  for (const Boundary& b : boundaries_[slot]) {
    const std::int64_t previous = last_.exchange(b.line, b.last);
    prev_[static_cast<std::size_t>(b.first)] = previous;
    if (previous < 0) ++distinct_;
  }
}

// Phase B for distance segment `part` of `parts` over the current feed.
// One segment counts on the carried tree itself, straight off the line
// column with the fused last-seen loop (no phase A). Several segments
// each count on a tree already at their start state — the carried tree
// itself for the first, fenwicks_[part] rebuilt for the others — reading
// phase A's prev_[j] before overwriting it with distances[j] (the two
// may alias).
void Engine::count_distances(std::size_t count, std::size_t parts,
                             std::size_t part, std::int64_t* distances) {
  const std::size_t base = events_;
  const std::int64_t* lines = lines_.data();
  if (parts == 1) {
    fenwick_.ensure(base + count);
    // Every mark sits at a position < i (each line's most recent
    // occurrence), so range(p + 1, i) == distinct - prefix(p): one tree
    // descent per event instead of two.
    auto olken = [&](auto&& exchange) {
      std::int64_t distinct = distinct_;
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = base + j;
        const std::int64_t p = exchange(lines[j], static_cast<std::int64_t>(i));
        std::int64_t distance;
        if (p < 0) {
          distance = kInfiniteDistance;
          ++distinct;
        } else {
          const std::size_t position = static_cast<std::size_t>(p);
          distance = distinct - fenwick_.prefix(position);
          fenwick_.add(position, -1);
        }
        fenwick_.add(i, +1);
        distances[j] = distance;
      }
      distinct_ = distinct;
    };
    if (last_.dense()) {
      std::int64_t* slots = last_.dense_slots();
      const std::int64_t lo = last_.lo();
      olken([&](std::int64_t line, std::int64_t value) {
        std::int64_t& slot = slots[static_cast<std::size_t>(line - lo)];
        const std::int64_t previous = slot;
        slot = value;
        return previous;
      });
    } else {
      olken([&](std::int64_t line, std::int64_t value) {
        return last_.exchange(line, value);
      });
    }
    return;
  }
  const std::size_t s = segment_begin(count, parts, part);
  const std::size_t e = segment_begin(count, parts, part + 1);
  Fenwick32& fen = part == 0 ? fenwick_ : fenwicks_[part];
  const std::int64_t* prev = prev_.data();
  for (std::size_t j = s; j < e; ++j) {
    const std::size_t i = base + j;
    const std::int64_t p = prev[j];
    std::int64_t distance;
    if (p < 0) {
      distance = kInfiniteDistance;
    } else {
      const std::size_t position = static_cast<std::size_t>(p);
      distance = fen.range(position + 1, i);
      fen.add(position, -1);
    }
    fen.add(i, +1);
    distances[j] = distance;
  }
}

// One cache partition: scan the feed's whole line column, simulate only
// the partition's sets. A line maps to exactly one set, so partitions
// touch disjoint LRU state and disjoint `seen` bytes, and each per-set
// access subsequence equals the serial one.
void Engine::cache_partition_pass(const std::int32_t* containers,
                                  std::size_t count, std::size_t index) {
  CachePartition& part = cache_parts_[index];
  const std::size_t sets = static_cast<std::size_t>(geometry_.num_sets);
  const std::int64_t set_begin =
      static_cast<std::int64_t>(segment_begin(sets, cache_parts_.size(), index));
  const std::int64_t set_count =
      static_cast<std::int64_t>(
          segment_begin(sets, cache_parts_.size(), index + 1)) -
      set_begin;
  const std::int64_t ways = geometry_.ways;
  const std::int64_t num_sets = geometry_.num_sets;
  const bool small = ways <= kSmallWays;
  const bool pow2 = (num_sets & (num_sets - 1)) == 0;
  const std::int64_t mask = num_sets - 1;
  const std::int64_t* cache_lines =
      shared_lines_ ? lines_.data() : cache_lines_.data();
  std::uint8_t* seen = seen_.data();
  // True on a line's first residency in the cache (a cold miss).
  auto first_touch = [&](std::int64_t line) {
    if (!seen_dense_) return part.sparse_seen.insert(line).second;
    std::uint8_t& was_seen = seen[static_cast<std::size_t>(line - seen_lo_)];
    if (was_seen) return false;
    was_seen = 1;
    return true;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t line = cache_lines[i];
    const std::int64_t set = pow2 ? (line & mask) : (line % num_sets);
    const std::uint64_t local = static_cast<std::uint64_t>(set - set_begin);
    if (local >= static_cast<std::uint64_t>(set_count)) continue;
    MissStats& stats =
        part.per_container[static_cast<std::size_t>(containers[i])];
    if (small) {
      std::int64_t* entry =
          part.small.data() +
          static_cast<std::size_t>(local) * static_cast<std::size_t>(ways);
      std::int64_t found = -1;
      for (std::int64_t w = 0; w < ways; ++w) {
        const std::int64_t resident = entry[w];
        if (resident == line) {
          found = w;
          break;
        }
        if (resident < 0) break;  // Empty tail — not resident.
      }
      if (found >= 0) {
        ++stats.hits;
        for (std::int64_t w = found; w > 0; --w) entry[w] = entry[w - 1];
      } else {
        ++(first_touch(line) ? stats.cold : stats.capacity);
        for (std::int64_t w = ways - 1; w > 0; --w) entry[w] = entry[w - 1];
      }
      entry[0] = line;
    } else {
      WideSet& set_state = part.wide[static_cast<std::size_t>(local)];
      auto it = set_state.where.find(line);
      if (it != set_state.where.end()) {
        ++stats.hits;
        set_state.lru.splice(set_state.lru.begin(), set_state.lru,
                             it->second);
      } else {
        ++(first_touch(line) ? stats.cold : stats.capacity);
        set_state.lru.push_front(line);
        set_state.where[line] = set_state.lru.begin();
        if (static_cast<std::int64_t>(set_state.lru.size()) > ways) {
          set_state.where.erase(set_state.lru.back());
          set_state.lru.pop_back();
        }
      }
    }
  }
}

// Phase A over the whole feed: prev_[j] for every event, stitched into
// the carried last-seen table slice by slice in ascending order.
void Engine::previous_occurrences(std::size_t count,
                                  std::size_t worker_count) {
  const std::size_t slots = segment_count(
      count, std::min(worker_count, kMaxPrevSegments), kMinSegmentEvents);
  if (slot_seen_.size() < slots) slot_seen_.resize(slots);
  if (boundaries_.size() < slots) boundaries_.resize(slots);
  const bool dense =
      last_.dense() &&
      last_.span() <= kLocalDenseEntries / static_cast<std::int64_t>(slots);
  run_tasks(slots, false, [&](std::size_t k) {
    local_prev(segment_begin(count, slots, k),
               segment_begin(count, slots, k + 1), k, dense);
  });
  for (std::size_t k = 0; k < slots; ++k) stitch_slice(k);
}

// The order-insensitive consumers over the feed: the first segment
// accumulates straight into the carried tally, the rest into private
// partials merged in ascending segment order. Returns the segment count.
std::size_t Engine::consume(const std::int32_t* containers,
                            const std::int64_t* flats,
                            const std::uint8_t* writes,
                            const std::int64_t* distances, std::size_t count,
                            std::size_t worker_count, bool inline_only) {
  // Each extra segment zeroes and merges a private copy of every
  // per-element array, so a feed splits only as far as each segment has
  // kEventsPerElement events for every element.
  std::size_t elements = 0;
  for (const std::int64_t per_container : elements_) {
    elements += static_cast<std::size_t>(per_container);
  }
  std::size_t parts = segment_count(
      count, std::min(worker_count, kMaxConsumerSegments), kMinSegmentEvents);
  if (elements > 0) {
    parts = std::min(parts, std::max<std::size_t>(
                                1, count / (kEventsPerElement * elements)));
  }
  if (partials_.size() + 1 < parts) partials_.resize(parts - 1);
  run_tasks(parts, inline_only, [&](std::size_t w) {
    Tally& tally = w == 0 ? tally_ : partials_[w - 1];
    if (w > 0) reset_tally(config_, elements_, tally);
    consume_segment(config_, containers, flats, writes, distances,
                    segment_begin(count, parts, w),
                    segment_begin(count, parts, w + 1), tally);
  });
  if (parts <= 1) return parts;

  auto merge_arrays =
      [&](std::vector<std::vector<std::int64_t>> Tally::* member) {
        for (std::size_t c = 0; c < elements_.size(); ++c) {
          std::int64_t* out = (tally_.*member)[c].data();
          par::parallel_for(
              static_cast<std::size_t>(elements_[c]), 1 << 14,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t w = 1; w < parts; ++w) {
                  const std::int64_t* partial =
                      (partials_[w - 1].*member)[c].data();
                  for (std::size_t i = begin; i < end; ++i) {
                    out[i] += partial[i];
                  }
                }
              });
        }
      };
  if (config_.counts) {
    merge_arrays(&Tally::reads);
    merge_arrays(&Tally::writes);
  }
  if (config_.miss_threshold_lines > 0) {
    merge_arrays(&Tally::element_misses);
    for (std::size_t w = 1; w < parts; ++w) {
      for (std::size_t c = 0; c < elements_.size(); ++c) {
        add_stats(tally_.misses[c], partials_[w - 1].misses[c]);
      }
    }
  }
  if (config_.element_stats) {
    merge_arrays(&Tally::cold);
    // Appending in ascending segment order keeps the (flat, distance)
    // pairs in serial event order.
    for (std::size_t w = 1; w < parts; ++w) {
      for (std::size_t c = 0; c < elements_.size(); ++c) {
        const auto& pairs = partials_[w - 1].finite[c];
        tally_.finite[c].insert(tally_.finite[c].end(), pairs.begin(),
                                pairs.end());
      }
    }
  }
  return parts;
}

void Engine::feed(const std::int32_t* containers, const std::int64_t* flats,
                  const std::uint8_t* writes, std::size_t count) {
  const std::size_t workers_now = workers();
  if (workers_now == 1 && count > kWindowEvents) {
    for (std::size_t at = 0; at < count; at += kWindowEvents) {
      feed(containers + at, flats + at, writes + at,
           std::min(kWindowEvents, count - at));
    }
    return;
  }
  derive_lines(containers, flats, count);
  const bool inline_only = count < kMinSegmentEvents;

  std::int64_t* distances = nullptr;
  std::size_t distance_parts = 0;
  if (config_.needs_distances()) {
    // Unless kept, distances overwrite phase A's prev column in place.
    prev_.resize(count);
    distances = prev_.data();
    if (config_.keep_distances) {
      kept_distances_.resize(events_ + count);
      distances = kept_distances_.data() + events_;
    }
    // Segment start states are rebuilt over every event fed so far, so
    // only a feed at least as long as that history splits phase B; a
    // short resume counts serially on the carried tree.
    distance_parts =
        events_ <= count
            ? segment_count(count, std::min(workers_now, kMaxDistanceSegments),
                            kMinSegmentEvents)
            : 1;
    if (distance_parts > 1) {
      previous_occurrences(count, workers_now);
      // Every later segment's start state is rebuilt before any segment
      // counts: counting overwrites the prev entries the rebuilds read,
      // and the first segment advances the carried tree they copy.
      if (fenwicks_.size() < distance_parts) fenwicks_.resize(distance_parts);
      run_tasks(distance_parts - 1, false, [&](std::size_t t) {
        const std::size_t k = t + 1;
        fenwicks_[k].advance_from(
            fenwick_, events_, prev_.data(),
            segment_begin(count, distance_parts, k),
            events_ + segment_begin(count, distance_parts, k + 1));
      });
      fenwick_.ensure(events_ + segment_begin(count, distance_parts, 1));
    }
  }

  // Distance phase B and the set-partitioned cache in one task batch:
  // both only read the line columns and phase A's output.
  const std::size_t cache_parts = config_.cache ? cache_parts_.size() : 0;
  run_tasks(distance_parts + cache_parts, inline_only, [&](std::size_t t) {
    if (t < distance_parts) {
      count_distances(count, distance_parts, t, distances);
    } else {
      cache_partition_pass(containers, count, t - distance_parts);
    }
  });
  if (distance_parts > 1) std::swap(fenwick_, fenwicks_[distance_parts - 1]);

  std::size_t consumer_parts = 0;
  if (config_.counts || config_.miss_threshold_lines > 0 ||
      config_.element_stats) {
    consumer_parts = consume(containers, flats, writes, distances, count,
                             workers_now, inline_only);
  }
  events_ += count;
  partitions_ = static_cast<int>(std::max(
      {std::size_t{1}, distance_parts, cache_parts, consumer_parts}));
}

PipelineResult Engine::collect(std::int64_t executions, bool move) {
  using Values = std::vector<std::int64_t>;
  const std::size_t num_containers = layouts_.size();
  PipelineResult result;
  result.events = static_cast<std::int64_t>(events_);
  result.executions = executions;
  result.containers = containers_;
  // Carried per-element tallies stay in the engine (begin() reuses them)
  // and are narrowed into the result's columns, one pool task each. The
  // kept distances are moved out (finish()) or copied into a vector this
  // thread reserves (snapshot()), so the copy's memory comes from this
  // thread's malloc arena.
  std::vector<std::pair<const Values*, CountColumn*>> narrows;
  std::vector<std::pair<const Values*, Values*>> copies;
  std::size_t values = 0;
  auto narrow = [&](const Values& from, CountColumn& into) {
    narrows.emplace_back(&from, &into);
    values += from.size();
  };
  auto narrow_all = [&](const std::vector<Values>& from,
                        std::vector<CountColumn>& into) {
    into.resize(from.size());
    for (std::size_t c = 0; c < from.size(); ++c) narrow(from[c], into[c]);
  };
  if (config_.counts) {
    narrow_all(tally_.reads, result.counts.reads);
    narrow_all(tally_.writes, result.counts.writes);
  }
  if (config_.keep_distances) {
    result.distances.line_size = config_.line_size;
    if (move) {
      result.distances.distances = std::move(kept_distances_);
    } else {
      result.distances.distances.reserve(kept_distances_.size());
      copies.emplace_back(&kept_distances_, &result.distances.distances);
      values += kept_distances_.size();
    }
  }
  if (config_.miss_threshold_lines > 0) {
    result.misses.threshold_lines = config_.miss_threshold_lines;
    result.misses.per_container = tally_.misses;
    narrow_all(tally_.element_misses, result.misses.element_misses);
    for (const MissStats& stats : result.misses.per_container) {
      add_stats(result.misses.total, stats);
    }
  }
  // One task finalizes each container's element stats, into vectors and
  // scratch this thread reserved.
  const std::size_t finalized = config_.element_stats ? num_containers : 0;
  if (config_.element_stats) {
    result.element_stats.resize(num_containers);
    offsets_.resize(num_containers);
    sorted_.resize(num_containers);
    for (std::size_t c = 0; c < num_containers; ++c) {
      ElementDistanceStats& stats = result.element_stats[c];
      narrow(tally_.cold[c], stats.cold_count);
      const std::size_t elements = static_cast<std::size_t>(elements_[c]);
      stats.min.reserve(elements);
      stats.median.reserve(elements);
      stats.max.reserve(elements);
      detail::reserve_scratch(offsets_[c], elements);
      detail::reserve_scratch(sorted_[c], tally_.finite[c].size());
      values += 3 * elements;
    }
  }
  // Finalizations, the longest tasks, are handed out first.
  fill_tasks(finalized + copies.size() + narrows.size(), values,
             [&](std::size_t t) {
               if (t < finalized) {
                 detail::finalize_element_stats(
                     elements_[t], tally_.finite[t], offsets_[t], sorted_[t],
                     result.element_stats[t]);
               } else if (t < finalized + copies.size()) {
                 const auto& [from, into] = copies[t - finalized];
                 into->assign(from->begin(), from->end());
               } else {
                 const auto& [from, into] =
                     narrows[t - finalized - copies.size()];
                 *into = CountColumn(*from);
               }
             });
  if (config_.cache) {
    result.cache.config = *config_.cache;
    result.cache.per_container.assign(num_containers, {});
    for (const CachePartition& part : cache_parts_) {
      for (std::size_t c = 0; c < num_containers; ++c) {
        add_stats(result.cache.per_container[c], part.per_container[c]);
      }
    }
    for (const MissStats& stats : result.cache.per_container) {
      add_stats(result.cache.total, stats);
    }
  }
  if (config_.movement) {
    result.movement.line_size = config_.line_size;
    result.movement.bytes_per_container.reserve(num_containers);
    for (const MissStats& stats : result.misses.per_container) {
      const std::int64_t bytes = stats.misses() * config_.line_size;
      result.movement.bytes_per_container.push_back(bytes);
      result.movement.total_bytes += bytes;
    }
  }
  return result;
}

PipelineResult Engine::snapshot(std::int64_t executions) {
  return collect(executions, /*move=*/false);
}

PipelineResult Engine::finish(std::int64_t executions) {
  return collect(executions, /*move=*/true);
}

}  // namespace dmv::sim::merge
