#pragma once

// Local-view simulation (paper §V).
//
// Once the user parameterizes a program region (binds its symbols to
// small concrete values), the iteration space of every map becomes
// enumerable, every memlet subset becomes evaluable, and the exact data
// access pattern of the region follows — no execution or profiling of the
// real program required. This module produces that access trace and the
// result types of the metrics the paper visualizes:
//
//   * per-element access counts (the flattened-time heatmap of Fig 4b),
//   * stack/reuse distance at cache-line granularity (Fig 5b),
//   * cold/capacity cache-miss classification with a user-adjustable
//     capacity threshold assuming a fully-associative LRU cache (§V-F),
//   * an exact set-associative LRU simulation used as ground truth to
//     validate that assumption,
//   * estimated physical data movement (misses x line size) that refines
//     the logical volumes of the global view (Fig 5c, Fig 7).
//
// One metric engine computes all of them: MetricPipeline
// (dmv/sim/pipeline.hpp) fills a PipelineResult with any subset, from a
// trace or straight from the program. The free functions below are the
// queries that have no engine twin: related accesses (Fig 4c), the
// details-panel distance histogram, per-execution line statistics and
// the per-edge refinement of the global view.
//
// Ownership: every result type here (AccessTrace, StackDistanceResult,
// MissReport, ...) is a self-contained value — it owns its vectors and
// never aliases the inputs it was computed from. Per-element counts
// (access, miss and cold counts) are CountColumns, stored at the
// narrowest width their values need.
//
// Thread safety & determinism: the functions are pure — concurrent
// calls on distinct traces are safe; concurrent calls on the SAME trace
// are safe because traces are only read. related_accesses and
// build_line_table parallelize internally through dmv::par's
// block-ordered reduce, so their output is bit-identical at any
// dmv::par::num_threads() setting; see dmv/par/par.hpp for the contract
// and determinism_test for the gate.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/layout/layout.hpp"

namespace dmv::sim {

using ir::Sdfg;
using ir::State;
using layout::ConcreteLayout;
using symbolic::SymbolMap;

/// One element-granularity access in the simulated execution. This is
/// the VALUE type call sites iterate with; storage is columnar
/// (EventList), so the struct only exists transiently. An event's time
/// is its index in the trace, so no field stores it.
struct AccessEvent {
  std::int32_t container = 0;   ///< Index into AccessTrace::layouts.
  std::int64_t flat = 0;        ///< Logical row-major element index.
  bool is_write = false;
  std::int64_t execution = 0;   ///< Tasklet-execution instance id.
  ir::NodeId tasklet = ir::kNoNode;  ///< Originating tasklet (or copy).
};

/// Structure-of-arrays event storage, five columns and 25 B per event.
/// Metric passes touch only the columns they need (stack distance reads
/// container+flat, 12 B/event), and a column never pulls its neighbors
/// into cache. The container interface mirrors
/// std::vector<AccessEvent> — size/reserve/push_back/operator[]/range-for
/// — so pre-SoA call sites compile unchanged; operator[] and the
/// iterator gather an AccessEvent by value. The columns are plain
/// vectors and the const accessors only read them, so parallel workers
/// may share one list's column spans without any setup.
class EventList {
 public:
  std::size_t size() const { return flat_.size(); }
  bool empty() const { return size() == 0; }

  void reserve(std::size_t n) {
    container_.reserve(n);
    flat_.reserve(n);
    is_write_.reserve(n);
    execution_.reserve(n);
    tasklet_.reserve(n);
  }

  void clear() {
    container_.clear();
    flat_.clear();
    is_write_.clear();
    execution_.clear();
    tasklet_.clear();
  }

  void push_back(const AccessEvent& event) {
    container_.push_back(event.container);
    flat_.push_back(event.flat);
    is_write_.push_back(event.is_write ? 1 : 0);
    execution_.push_back(event.execution);
    tasklet_.push_back(event.tasklet);
  }

  /// Sizes every column to exactly n events (new slots zero-filled).
  /// The parallel trace writer sizes the list from the plan's total ONCE,
  /// then chunks fill disjoint slices via set() — no writer ever grows
  /// the columns, so concurrent slice stores never invalidate each other.
  void resize(std::size_t n) {
    container_.resize(n);
    flat_.resize(n);
    is_write_.resize(n);
    execution_.resize(n);
    tasklet_.resize(n);
  }

  /// Copies `count` events from `src` (starting at `src_begin`) into
  /// this list at `dst_begin`, adding `execution_delta` to the copied
  /// execution ids. Both lists must already be sized; the other columns
  /// (container, flat, is_write, tasklet) are copied verbatim. This is
  /// the delta engine's clean-chunk splice: a chunk whose events are
  /// unchanged but whose position in the stream shifted is rebased with
  /// one column-wide add instead of re-simulation.
  void assign_range(const EventList& src, std::size_t src_begin,
                    std::size_t dst_begin, std::size_t count,
                    std::int64_t execution_delta) {
    std::copy_n(src.container_.begin() + src_begin, count,
                container_.begin() + dst_begin);
    std::copy_n(src.flat_.begin() + src_begin, count,
                flat_.begin() + dst_begin);
    std::copy_n(src.is_write_.begin() + src_begin, count,
                is_write_.begin() + dst_begin);
    std::copy_n(src.tasklet_.begin() + src_begin, count,
                tasklet_.begin() + dst_begin);
    for (std::size_t i = 0; i < count; ++i) {
      execution_[dst_begin + i] =
          src.execution_[src_begin + i] + execution_delta;
    }
  }

  /// Overwrites event i (must be < size()). Writing DISTINCT indices
  /// from different threads is safe: each store touches only element i
  /// of each pre-sized column.
  void set(std::size_t i, const AccessEvent& event) {
    container_[i] = event.container;
    flat_[i] = event.flat;
    is_write_[i] = event.is_write ? 1 : 0;
    execution_[i] = event.execution;
    tasklet_[i] = event.tasklet;
  }

  AccessEvent operator[](std::size_t i) const {
    AccessEvent event;
    event.container = container_[i];
    event.flat = flat_[i];
    event.is_write = is_write_[i] != 0;
    event.execution = execution_[i];
    event.tasklet = tasklet_[i];
    return event;
  }

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = AccessEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AccessEvent;

    const_iterator() = default;
    const_iterator(const EventList* list, std::size_t index)
        : list_(list), index_(index) {}
    AccessEvent operator*() const { return (*list_)[index_]; }
    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { return {list_, index_++}; }
    const_iterator& operator--() { --index_; return *this; }
    const_iterator& operator+=(difference_type d) { index_ += d; return *this; }
    friend const_iterator operator+(const_iterator it, difference_type d) {
      return {it.list_, it.index_ + d};
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.index_ != b.index_;
    }

   private:
    const EventList* list_ = nullptr;
    std::size_t index_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Column views for the hot metric passes.
  std::span<const std::int32_t> container_column() const { return container_; }
  std::span<const std::int64_t> flat_column() const { return flat_; }
  std::span<const std::uint8_t> write_column() const { return is_write_; }
  std::span<const std::int64_t> execution_column() const { return execution_; }
  std::span<const ir::NodeId> tasklet_column() const { return tasklet_; }

  /// Bytes currently RESERVED by the columns — the quantity the
  /// streaming pipeline keeps at zero (O(1)-memory contract).
  std::size_t capacity_bytes() const {
    return container_.capacity() * sizeof(std::int32_t) +
           flat_.capacity() * sizeof(std::int64_t) +
           is_write_.capacity() * sizeof(std::uint8_t) +
           execution_.capacity() * sizeof(std::int64_t) +
           tasklet_.capacity() * sizeof(ir::NodeId);
  }

 private:
  std::vector<std::int32_t> container_;
  std::vector<std::int64_t> flat_;
  std::vector<std::uint8_t> is_write_;
  std::vector<std::int64_t> execution_;
  std::vector<ir::NodeId> tasklet_;
};

/// Full simulated access pattern of a parameterized program.
struct AccessTrace {
  std::vector<std::string> containers;       ///< Names, index-aligned.
  std::vector<ConcreteLayout> layouts;       ///< Placed in address space.
  EventList events;                          ///< Event i happens at time i.
  std::int64_t executions = 0;               ///< Total tasklet instances.

  int container_id(const std::string& name) const;
  const ConcreteLayout& layout_of(const std::string& name) const;
};

/// Simulation settings, none of which changes the trace. The trace
/// itself is fixed by the program and binding: containers are placed
/// 64-byte aligned, and a WCR (accumulating) update is one write event,
/// as the paper counts it.
struct SimulationOptions {
  /// Lane width W of the batched engine: innermost map loops whose
  /// scope is pure tasklets advance W iteration points per step and
  /// evaluate each memlet subset expression for all W lanes in one SoA
  /// pass (symbolic/batched.hpp); loop-invariant expressions are hoisted
  /// out of the innermost loop entirely. Output is bit-identical to the
  /// scalar loop at any width — including which exception fires at
  /// which iteration point, via scalar replay of faulting batches — and
  /// composes with chunk-parallel generation (threads x lanes). 1
  /// disables batching; values are clamped to [1, symbolic::kMaxLaneWidth].
  int lane_width = 8;
};

/// Reusable buffers for parallel trace generation (plan storage and
/// chunk buffers); see sim/trace_plan.hpp. Passing one to simulate_into
/// lets a sweep pay the plan allocation once instead of once per
/// binding.
struct TraceArena;

/// Thrown by the simulator when a memlet subset reaches outside its
/// container's extents under the binding — e.g. a fixed_capacity build
/// stepped past its capacity symbol: the binding, not the program, is
/// at fault.
class OutOfBoundsAccessError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Simulates every state of the SDFG under the given parameter binding
/// and returns the exact access trace (§V-C "iteration space simulation").
/// Generation is chunk-parallel on the dmv::par pool when more than one
/// thread is available, the call is not already inside a pool task, and
/// the plan (sim/trace_plan.hpp) finds enough work to split; otherwise
/// it runs serially. The trace is bit-identical either way (see
/// docs/simulation.md), and so is the error: an out-of-bounds access
/// throws OutOfBoundsAccessError for the first one in serial order.
AccessTrace simulate(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options = {});

/// Same, but (re)filling a caller-owned trace: containers/layouts/events
/// are cleared and rewritten while the event columns KEEP their
/// capacity. This is the sweep-arena entry point — one trace buffer
/// serves every slider position instead of reallocating per binding.
/// `arena` (optional) additionally reuses the parallel-generation plan
/// storage across calls.
void simulate_into(const Sdfg& sdfg, const SymbolMap& symbols,
                   const SimulationOptions& options, AccessTrace& trace,
                   TraceArena* arena = nullptr);

/// Places every container exactly as simulate() does (deterministic
/// sdfg.arrays() order, 64-byte aligned), APPENDING to
/// trace.containers / trace.layouts — callers clear first. Builds the
/// trace header the delta engine and the chunk writers need without
/// generating a single event.
void place_containers(const Sdfg& sdfg, const SymbolMap& symbols,
                      AccessTrace& trace);

/// One-shot materialization of per-event cache-line ids at one line
/// size: the layout.unflatten + byte_address derivation, once per event.
struct LineTable {
  int line_size = 64;
  std::vector<std::int64_t> lines;  ///< Per-event global cache-line id.
};

LineTable build_line_table(const AccessTrace& trace, int line_size);

/// An immutable column of per-element integers (one container's access,
/// miss or cold counts), stored at the narrowest width its values
/// need: each value v is kept as v - base(), where base() is the
/// minimum, in the narrowest of 1, 2, 4 or 8 bytes that holds
/// max - min (taken in wrapping uint64, so every int64 range is exact).
/// Every producer narrows by this one rule, so equal values always make
/// the same column: the same base, width and words, and so the same
/// approx_size_bytes charge. It is the DMVR packed record's frame of
/// reference (docs/storage.md): a record of 8 bits or more holds the
/// column's words in little-endian order. hdiff and BERT counts fit in
/// one byte, an eighth of an int64 vector.
///
/// Readers see values only: operator[], iteration, sum(), values(), or
/// visit() for a loop over the stored words.
class CountColumn {
 public:
  /// Empty: base 0, one byte per value.
  CountColumn() = default;

  /// Narrows `values`.
  explicit CountColumn(std::span<const std::int64_t> values) {
    std::int64_t lo = values.empty() ? 0 : values[0];
    std::int64_t hi = lo;
    for (const std::int64_t value : values) {
      lo = value < lo ? value : lo;
      hi = value > hi ? value : hi;
    }
    base_ = lo;
    narrow(width_for(static_cast<std::uint64_t>(hi) -
                     static_cast<std::uint64_t>(lo)),
           values);
  }

  CountColumn(std::initializer_list<std::int64_t> values)
      : CountColumn(std::span(values.begin(), values.size())) {}

  /// Narrows non-negative values a producer already holds in unsigned
  /// words (value i is values[i]) by the same rule. The vector itself
  /// becomes the column when no narrower word holds max - min: as is
  /// when its minimum is 0, else with the minimum subtracted in place.
  /// Otherwise the values are narrowed into a new vector. Throws
  /// std::invalid_argument when a value passes INT64_MAX.
  template <class Word>
  static CountColumn from_values(std::vector<Word> values) {
    Word lo = values.empty() ? 0 : values[0];
    Word hi = lo;
    for (const Word value : values) {
      lo = value < lo ? value : lo;
      hi = value > hi ? value : hi;
    }
    if constexpr (sizeof(Word) == 8) {
      if (hi > static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max())) {
        throw std::invalid_argument("CountColumn: a value passes INT64_MAX");
      }
    }
    CountColumn column;
    column.base_ = static_cast<std::int64_t>(lo);
    const std::size_t width = width_for(hi - lo);
    if (width != sizeof(Word)) {
      column.narrow(width, std::span<const Word>(values));
      return column;
    }
    if (lo != 0) {
      for (Word& value : values) value = static_cast<Word>(value - lo);
    }
    column.words_ = std::move(values);
    return column;
  }

  /// Adopts words already narrowed by the rule, as a decoder reads
  /// them. Throws std::invalid_argument when they are not: a non-empty
  /// column whose smallest word is not 0, whose largest word fits a
  /// narrower width or whose largest value passes INT64_MAX; an empty
  /// one with a nonzero base or words wider than a byte.
  template <class Word>
  static CountColumn from_words(std::int64_t base, std::vector<Word> words) {
    Word lo = std::numeric_limits<Word>::max();
    Word hi = 0;
    for (const Word word : words) {
      lo = word < lo ? word : lo;
      hi = word > hi ? word : hi;
    }
    const bool narrowed =
        words.empty()
            ? base == 0 && sizeof(Word) == 1
            : lo == 0 && width_for(hi) == sizeof(Word) &&
                  hi <= static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max()) -
                            static_cast<std::uint64_t>(base);
    if (!narrowed) {
      throw std::invalid_argument("CountColumn: words are not narrowed");
    }
    CountColumn column;
    column.base_ = base;
    column.words_ = std::move(words);
    return column;
  }

  /// Bytes per stored value for values whose max - min is `range`.
  static constexpr std::size_t width_for(std::uint64_t range) {
    if (range <= 0xff) return 1;
    if (range <= 0xffff) return 2;
    return range <= 0xffffffff ? 4 : 8;
  }

  std::size_t size() const {
    return std::visit([](const auto& words) { return words.size(); }, words_);
  }
  bool empty() const { return size() == 0; }
  /// The minimum value (0 when empty).
  std::int64_t base() const { return base_; }
  /// Bytes per stored value: 1, 2, 4 or 8.
  std::size_t byte_width() const {
    return std::size_t{1} << words_.index();
  }

  std::int64_t operator[](std::size_t i) const {
    return std::visit(
        [&](const auto& words) { return value_of(words[i]); }, words_);
  }

  /// Calls f(std::span<const Word>) on the stored words, where value i
  /// is base() + words[i] — the one loop a bulk reader writes.
  template <class F>
  decltype(auto) visit(F&& f) const {
    return std::visit(
        [&](const auto& words) -> decltype(auto) {
          return f(std::span(words.data(), words.size()));
        },
        words_);
  }

  /// Sum of the values in wrapping int64 arithmetic.
  std::int64_t sum() const {
    return visit([&](auto words) {
      std::uint64_t total = static_cast<std::uint64_t>(base_) * words.size();
      for (const auto word : words) total += word;
      return static_cast<std::int64_t>(total);
    });
  }

  /// The values, widened.
  std::vector<std::int64_t> values() const {
    return visit([&](auto words) {
      std::vector<std::int64_t> out(words.size());
      for (std::size_t i = 0; i < words.size(); ++i) {
        out[i] = value_of(words[i]);
      }
      return out;
    });
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::int64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::int64_t;

    const_iterator() = default;
    const_iterator(const CountColumn* column, std::size_t index)
        : column_(column), index_(index) {}
    std::int64_t operator*() const { return (*column_)[index_]; }
    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { return {column_, index_++}; }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const CountColumn* column_ = nullptr;
    std::size_t index_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Equal values. Columns are canonical, so this compares base and
  /// words.
  friend bool operator==(const CountColumn& a, const CountColumn& b) {
    return a.base_ == b.base_ && a.words_ == b.words_;
  }

 private:
  std::int64_t value_of(std::uint64_t word) const {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(base_) +
                                     word);
  }

  // Stores values[i] - base_ in words `width` bytes wide.
  template <class Value>
  void narrow(std::size_t width, std::span<const Value> values) {
    switch (width) {
      case 1: words_ = rebased<std::uint8_t>(values); break;
      case 2: words_ = rebased<std::uint16_t>(values); break;
      case 4: words_ = rebased<std::uint32_t>(values); break;
      default: words_ = rebased<std::uint64_t>(values); break;
    }
  }

  template <class Word, class Value>
  std::vector<Word> rebased(std::span<const Value> values) const {
    std::vector<Word> words(values.size());
    const std::uint64_t base = static_cast<std::uint64_t>(base_);
    for (std::size_t i = 0; i < values.size(); ++i) {
      words[i] =
          static_cast<Word>(static_cast<std::uint64_t>(values[i]) - base);
    }
    return words;
  }

  std::int64_t base_ = 0;
  /// Indexed by log2 of the width.
  std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
               std::vector<std::uint32_t>, std::vector<std::uint64_t>>
      words_;
};

/// Per-element access counts per container; the flattened-time heatmap.
struct AccessCounts {
  /// [container] -> count per flat logical index.
  std::vector<CountColumn> reads;
  std::vector<CountColumn> writes;
  /// Reads plus writes per element of `container`.
  std::vector<std::int64_t> total(int container) const;
};

/// Related-access query (Fig 4c): accumulate, over every tasklet
/// execution that touches one of the selected elements, all accesses that
/// execution makes to OTHER containers/elements. Multiple selected
/// elements stack additively, as in the paper's click-to-stack UI.
struct Selection {
  int container = 0;
  std::vector<std::int64_t> flats;
};
AccessCounts related_accesses(const AccessTrace& trace,
                              const std::vector<Selection>& selected);

/// Stack distance (reuse distance) per event at cache-line granularity:
/// the number of DISTINCT cache lines referenced since the previous
/// reference to this event's line; kInfiniteDistance for first-ever
/// references (cold). Accessing a line "references" every element in it,
/// matching §V-E.
inline constexpr std::int64_t kInfiniteDistance =
    std::numeric_limits<std::int64_t>::max();

struct StackDistanceResult {
  int line_size = 64;
  /// Parallel to trace.events.
  std::vector<std::int64_t> distances;
};

/// Distance statistics per element for the Fig 5b heatmap. A value of
/// kInfiniteDistance appears for never-reused elements.
struct ElementDistanceStats {
  std::vector<std::int64_t> min;
  std::vector<std::int64_t> median;
  std::vector<std::int64_t> max;
  CountColumn cold_count;  ///< Infinite-distance accesses.
};

/// All finite distances + cold count for one element or a whole
/// container, for the details-panel histogram of Fig 5b.
struct DistanceHistogram {
  std::vector<std::int64_t> distances;  ///< Finite distances, ascending.
  std::int64_t cold_misses = 0;
};
DistanceHistogram distance_histogram(const AccessTrace& trace,
                                     const StackDistanceResult& result,
                                     int container,
                                     std::int64_t flat = -1);

/// Cold/capacity miss classification from stack distances (§V-F). The
/// threshold is in cache lines: an access whose distance is >= threshold
/// is a capacity miss under LRU. Conflict misses are deliberately not
/// modeled (fully-associative assumption).
struct MissStats {
  std::int64_t cold = 0;
  std::int64_t capacity = 0;
  std::int64_t hits = 0;
  std::int64_t misses() const { return cold + capacity; }
  std::int64_t accesses() const { return cold + capacity + hits; }
};

struct MissReport {
  std::int64_t threshold_lines = 0;
  std::vector<MissStats> per_container;
  /// [container] -> predicted misses per element's accesses.
  std::vector<CountColumn> element_misses;
  MissStats total;
};

/// Exact cache simulation used as ground truth for the §V-F assumption.
struct CacheConfig {
  int line_size = 64;
  std::int64_t total_size = 32 * 1024;
  /// Associativity; 0 = fully associative.
  int ways = 8;
};
struct CacheSimResult {
  CacheConfig config;
  std::vector<MissStats> per_container;  ///< cold vs non-cold split.
  MissStats total;
};

/// Spatial-locality statistics at tasklet-execution granularity, the
/// metric behind the Fig 8c padding step: for each execution (one stencil
/// application), how many distinct cache lines does its access
/// neighborhood on `container` touch, and what fraction of each touched
/// line's elements does the SAME execution use? Post-padding aligns rows
/// to lines, so neighborhoods stop pulling in unrelated previous-row
/// elements and utilization rises.
struct IterationLineStats {
  double mean_lines_per_execution = 0;
  /// Mean over executions of (elements accessed) / (line capacity in
  /// elements * lines touched).
  double mean_line_utilization = 0;
  std::int64_t executions = 0;
};
IterationLineStats iteration_line_stats(const AccessTrace& trace,
                                        int container, int line_size);

/// Physical data-movement estimate (§V-F): predicted misses times line
/// size, per container and total — the refinement shown on the Fig 5c and
/// Fig 7 overlays.
struct MovementEstimate {
  int line_size = 64;
  std::vector<std::int64_t> bytes_per_container;
  std::int64_t total_bytes = 0;
};

}  // namespace dmv::sim
