#include "closed_form_counts.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "dmv/symbolic/expr.hpp"

namespace dmv::sim::detail {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using symbolic::Expr;
using symbolic::ExprKind;
using symbolic::SymbolId;

// One evaluated map dimension.
struct Loop {
  SymbolId param = 0;
  std::int64_t begin = 0;
  std::int64_t trips = 0;
};

// One container: its row-major strides, and the boxes each of its two
// count vectors receives, in walk order. A box is `rank` lo indices,
// `rank` hi indices and its weight.
struct Target {
  std::vector<std::int64_t> shape;
  std::vector<std::int64_t> strides;
  std::size_t elements = 0;
  std::array<std::vector<std::int64_t>, 2> boxes;  ///< Indexed by is_write.
};

// One corner of a box's difference array. The weight wraps, as the
// words of the sweep do.
struct Corner {
  std::size_t flat = 0;
  std::uint64_t weight = 0;
};

bool mul_into(std::int64_t& into, std::int64_t factor) {
  return !__builtin_mul_overflow(into, factor, &into);
}

bool add_into(std::int64_t& into, std::int64_t term) {
  return !__builtin_add_overflow(into, term, &into);
}

bool sub_into(std::int64_t& into, std::int64_t term) {
  return !__builtin_sub_overflow(into, term, &into);
}

constexpr const char* kOverflow = "closed form: counts overflow int64";
constexpr const char* kOutside = "closed form: subset leaves its container";

// The loops in scope at a node: every dimension of every enclosing map,
// outermost first. Parameter names resolve innermost first, as the
// simulator's one flat environment does when a nested map reuses a name
// or a map parameter is named like a program symbol.
struct Scope {
  std::vector<Loop> loops;

  bool reads_loop(const Expr& e) const {
    for (const Loop& loop : loops) {
      if (e.depends_on(loop.param)) return true;
    }
    return false;
  }

  int resolve(SymbolId param) const {
    for (std::size_t k = loops.size(); k-- > 0;) {
      if (loops[k].param == param) return static_cast<int>(k);
    }
    return -1;
  }
};

class Counter {
 public:
  Counter(const SymbolMap& symbols, bool counts, PipelineResult& result)
      : symbols_(symbols), counts_(counts), result_(result) {}

  const char* run(const Sdfg& sdfg) {
    AccessTrace header;
    try {
      place_containers(sdfg, symbols_, header);
    } catch (const std::exception&) {
      return "closed form: a container layout fails under the binding";
    }
    result_ = PipelineResult{};
    result_.containers = header.containers;
    targets_.resize(header.layouts.size());
    for (std::size_t c = 0; c < header.layouts.size(); ++c) {
      Target& target = targets_[c];
      target.shape = header.layouts[c].shape;
      target.elements =
          static_cast<std::size_t>(header.layouts[c].total_elements());
      target.strides.assign(target.shape.size(), 1);
      for (std::size_t d = target.shape.size(); d-- > 1;) {
        target.strides[d - 1] = target.strides[d];
        if (!mul_into(target.strides[d - 1], target.shape[d])) {
          return kOverflow;
        }
      }
    }
    // A failed allocation declines too: the simulator then runs instead.
    try {
      for (const ir::State& state : sdfg.states()) {
        if (const char* reason = count_state(state)) return reason;
      }
      if (counts_) build_counts();
    } catch (const std::exception&) {
      return "closed form: an expression does not evaluate under the binding";
    }
    return nullptr;
  }

 private:
  std::int64_t eval(const Expr& e) const { return e.evaluate(symbols_); }

  const char* count_state(const ir::State& state) {
    // Throws where the simulator's schedule does (a dataflow cycle).
    schedule_ = ir::StateSchedule(state);
    // The simulator resolves every memlet's container up front.
    for (const Edge& edge : state.edges()) {
      if (edge.memlet.is_empty()) continue;
      if (result_.container_index(edge.memlet.data) < 0) {
        return "closed form: memlet names an unknown container";
      }
      if (state.node(edge.src).kind == NodeKind::Access &&
          state.node(edge.dst).kind == NodeKind::Access) {
        return "closed form: access-node copy";
      }
    }
    // Every map is entered, tasklets or not, so a bound the simulator
    // would fail on declines here too.
    for (const Node& node : state.nodes()) {
      if (node.kind != NodeKind::MapEntry && node.kind != NodeKind::Tasklet) {
        continue;
      }
      Scope scope;
      bool runs = true;
      if (const char* reason = enter_scope(state, node, scope, runs)) {
        return reason;
      }
      if (!runs || node.kind != NodeKind::Tasklet) continue;
      std::int64_t executions = 1;
      for (const Loop& loop : scope.loops) {
        if (!mul_into(executions, loop.trips)) {
          return kOverflow;
        }
      }
      if (!add_into(result_.executions, executions)) {
        return kOverflow;
      }
      for (const Edge* edge : schedule_.in_adjacency[node.id]) {
        if (edge->memlet.is_empty()) continue;
        if (const char* reason = add_memlet(scope, edge->memlet, false)) {
          return reason;
        }
      }
      for (const Edge* edge : schedule_.out_adjacency[node.id]) {
        if (edge->memlet.is_empty()) continue;
        if (const char* reason = add_memlet(scope, edge->memlet, true)) {
          return reason;
        }
      }
    }
    return nullptr;
  }

  // Collects the loops enclosing `node` (and, for a MapEntry, its own).
  // `runs` turns false when some map on the way has no trips or the
  // node sits outside any executed scope.
  const char* enter_scope(const ir::State& state, const Node& node,
                          Scope& scope, bool& runs) {
    std::vector<NodeId> chain;
    if (node.kind == NodeKind::MapEntry) chain.push_back(node.id);
    for (NodeId parent = node.scope_parent; parent != ir::kNoNode;
         parent = state.node(parent).scope_parent) {
      if (chain.size() > state.num_nodes()) {
        return "closed form: scope nesting is cyclic";
      }
      if (state.node(parent).kind != NodeKind::MapEntry) {
        runs = false;  // The simulator's scope walk never reaches it.
        return nullptr;
      }
      chain.push_back(parent);
    }
    for (std::size_t i = chain.size(); i-- > 0 && runs;) {
      if (const char* reason = enter_map(state.node(chain[i]).map, scope,
                                         runs)) {
        return reason;
      }
    }
    return nullptr;
  }

  // Appends the map's dimensions to `scope`. Bounds see only outer
  // parameters in the simulator, and the map's own parameters are
  // unbound while its bounds evaluate; a bound that reads any of them is
  // outside the rule (tiled or triangular maps, or an unbound read the
  // simulator reports itself). A dimension with no trips turns `runs`
  // false: the simulator evaluates nothing after it (later dimensions,
  // inner maps, memlets), and neither does the counter.
  const char* enter_map(const ir::MapInfo& info, Scope& scope, bool& runs) {
    if (info.params.size() != info.ranges.size()) {
      return "closed form: map parameters and ranges differ in number";
    }
    const std::size_t first = scope.loops.size();
    for (const std::string& param : info.params) {
      scope.loops.push_back({symbolic::intern_symbol(param), 0, 0});
    }
    for (std::size_t d = 0; d < info.ranges.size(); ++d) {
      const ir::Range& range = info.ranges[d];
      if (scope.reads_loop(range.begin) || scope.reads_loop(range.end) ||
          scope.reads_loop(range.step)) {
        return "closed form: map range reads a map parameter";
      }
      Loop& loop = scope.loops[first + d];
      loop.begin = eval(range.begin);
      loop.trips = eval(range.end);
      if (eval(range.step) != 1) return "closed form: map step is not 1";
      if (loop.trips < loop.begin) {
        runs = false;
        return nullptr;
      }
      if (!sub_into(loop.trips, loop.begin) || !add_into(loop.trips, 1)) {
        return kOverflow;
      }
    }
    return nullptr;
  }

  // `e` == p + c for one loop parameter p (coefficient 1) and a rest c
  // that reads no loop parameter: returns p's loop index and c's value,
  // or -1 (also when c overflows).
  int split_offset(const Scope& scope, const Expr& e,
                   std::int64_t& offset) const {
    if (e.is_symbol()) {
      offset = 0;
      return scope.resolve(e.symbol_id());
    }
    if (e.kind() != ExprKind::Add) return -1;
    int loop = -1;
    offset = 0;
    for (const Expr& term : e.operands()) {
      const int k = term.is_symbol() ? scope.resolve(term.symbol_id()) : -1;
      if (k >= 0 && loop < 0) {
        loop = k;
      } else if (scope.reads_loop(term) || !add_into(offset, eval(term))) {
        return -1;
      }
    }
    return loop;
  }

  const char* add_memlet(const Scope& scope, const ir::Memlet& memlet,
                         bool is_write) {
    const int container = result_.container_index(memlet.data);
    Target& target = targets_[static_cast<std::size_t>(container)];
    const std::size_t rank = target.shape.size();
    if (memlet.subset.ranges.size() != rank) {
      return "closed form: subset rank differs from the container's";
    }
    std::vector<char> used(scope.loops.size(), 0);
    lo_.assign(rank, 0);
    hi_.assign(rank, 0);
    std::int64_t volume = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      const ir::Range& range = memlet.subset.ranges[d];
      if (scope.reads_loop(range.step)) {
        return "closed form: subset step reads a map parameter";
      }
      if (!scope.reads_loop(range.begin) && !scope.reads_loop(range.end)) {
        const std::int64_t begin = eval(range.begin);
        const std::int64_t end = eval(range.end);
        const std::int64_t step = eval(range.step);
        if (step < 1) return "closed form: subset step is not positive";
        // The simulator's odometer emits `begin` alone unless a step
        // fits between begin and end (end < begin included).
        std::int64_t span = end;
        const bool several =
            end > begin && (!sub_into(span, begin) || span >= step);
        if (several && step != 1) {
          return "closed form: strided subset dimension";
        }
        lo_[d] = begin;
        hi_[d] = several ? end : begin;
      } else {
        std::int64_t begin = 0;
        std::int64_t end = 0;
        const int loop = split_offset(scope, range.begin, begin);
        if (loop < 0 || split_offset(scope, range.end, end) != loop) {
          return "closed form: subset dimension is not param + constant";
        }
        const std::int64_t step = eval(range.step);
        if (step < 1) return "closed form: subset step is not positive";
        std::int64_t span = end;
        if (end > begin && (!sub_into(span, begin) || span >= step)) {
          return "closed form: subset spans several elements along a map "
                 "parameter";
        }
        if (used[static_cast<std::size_t>(loop)]) {
          return "closed form: a map parameter indexes two subset dimensions";
        }
        used[static_cast<std::size_t>(loop)] = 1;
        const Loop& l = scope.loops[static_cast<std::size_t>(loop)];
        lo_[d] = begin;
        if (!add_into(lo_[d], l.begin)) return kOutside;
        hi_[d] = lo_[d];
        if (!add_into(hi_[d], l.trips - 1)) return kOutside;
      }
      if (lo_[d] < 0 || hi_[d] >= target.shape[d]) return kOutside;
      if (!mul_into(volume, hi_[d] - lo_[d] + 1)) {
        return kOverflow;
      }
    }
    std::int64_t weight = 1;
    for (std::size_t k = 0; k < scope.loops.size(); ++k) {
      if (!used[k] && !mul_into(weight, scope.loops[k].trips)) {
        return kOverflow;
      }
    }
    std::int64_t events = weight;
    if (!mul_into(events, volume) || !add_into(result_.events, events)) {
      return kOverflow;
    }
    if (counts_) {
      std::vector<std::int64_t>& boxes = target.boxes[is_write ? 1 : 0];
      boxes.insert(boxes.end(), lo_.begin(), lo_.end());
      boxes.insert(boxes.end(), hi_.begin(), hi_.end());
      boxes.push_back(weight);
    }
    return nullptr;
  }

  // Builds each (container, direction) column on the calling thread, so
  // its memory comes from this thread's malloc arena.
  void build_counts() {
    std::vector<CountColumn>& reads = result_.counts.reads;
    std::vector<CountColumn>& writes = result_.counts.writes;
    reads.resize(targets_.size());
    writes.resize(targets_.size());
    for (std::size_t c = 0; c < targets_.size(); ++c) {
      reads[c] = build_column(targets_[c], targets_[c].boxes[0]);
      writes[c] = build_column(targets_[c], targets_[c].boxes[1]);
    }
  }

  // A direction with no boxes is a column of zero bytes. Otherwise the
  // counts are swept in words as wide as the sum of the box weights
  // needs: every count lies in [0, that sum], and sums taken modulo
  // 2^bits are exact for results in that range, however the partial
  // sums wrap. CountColumn::from_values then rewrites the words only
  // when their minimum is above 0 or a narrower width holds their range.
  CountColumn build_column(const Target& target,
                           const std::vector<std::int64_t>& boxes) {
    if (boxes.empty()) {
      return CountColumn::from_values(
          std::vector<std::uint8_t>(target.elements));
    }
    switch (CountColumn::width_for(list_corners(target, boxes))) {
      case 1: return CountColumn::from_values(sweep<std::uint8_t>(target));
      case 2: return CountColumn::from_values(sweep<std::uint16_t>(target));
      case 4: return CountColumn::from_values(sweep<std::uint32_t>(target));
      default: return CountColumn::from_values(sweep<std::uint64_t>(target));
    }
  }

  // Lists in corners_, sorted by flat index, the corners of each box's
  // difference array: +/- weight at each of the 2^rank corners (lo or
  // hi + 1 per dimension, the sign flipping per hi + 1). Corners past
  // the end of a dimension are dropped: no count sums them. Returns the
  // sum of the box weights.
  std::uint64_t list_corners(const Target& target,
                             const std::vector<std::int64_t>& boxes) {
    const std::size_t rank = target.shape.size();
    corners_.clear();
    std::uint64_t weights = 0;
    for (std::size_t at = 0; at < boxes.size(); at += 2 * rank + 1) {
      const std::int64_t* lo = boxes.data() + at;
      const std::int64_t* hi = lo + rank;
      const auto weight = static_cast<std::uint64_t>(hi[rank]);
      weights += weight;
      for (std::size_t mask = 0; mask < (std::size_t{1} << rank); ++mask) {
        std::int64_t flat = 0;
        std::uint64_t signed_weight = weight;
        bool inside = true;
        for (std::size_t d = 0; d < rank && inside; ++d) {
          std::int64_t index = lo[d];
          if (mask & (std::size_t{1} << d)) {
            index = hi[d] + 1;
            signed_weight = -signed_weight;
            inside = index < target.shape[d];
          }
          flat += index * target.strides[d];
        }
        if (inside) {
          corners_.push_back({static_cast<std::size_t>(flat), signed_weight});
        }
      }
    }
    std::sort(corners_.begin(), corners_.end(),
              [](const Corner& a, const Corner& b) { return a.flat < b.flat; });
    return weights;
  }

  // The counts of `target` from corners_, in one pass over the rows
  // along the innermost dimension, in flat order. A row is first the
  // running sum of its corners. Then each outer dimension d, innermost
  // first, turns it into the prefix sum over dimensions d and inward:
  // the same row at d's previous index plus the row from the dimension
  // inside, or that row alone at index 0. Dimension d > 0 keeps its
  // prefix rows in a rolling buffer of strides[d] words; dimension 0's
  // previous index is the output itself. A row without corners is
  // neither computed nor added.
  template <class Word>
  std::vector<Word> sweep(const Target& target) const {
    const std::size_t rank = target.shape.size();
    std::vector<Word> out(target.elements);
    auto corner = corners_.cbegin();
    if (rank <= 1) {
      running_sum(corner, 0, out.data(), out.size());
      return out;
    }
    const std::size_t width = static_cast<std::size_t>(target.shape[rank - 1]);
    const std::size_t block = static_cast<std::size_t>(target.strides[0]);
    std::vector<Word> running(width);
    std::vector<std::vector<Word>> prefix(rank - 1);
    for (std::size_t d = 1; d + 1 < rank; ++d) {
      prefix[d].resize(static_cast<std::size_t>(target.strides[d]));
    }
    std::vector<std::int64_t> index(rank - 1, 0);  ///< The row's outer indices.
    for (std::size_t flat = 0; flat < target.elements;) {
      if (flat % block == 0 &&
          (corner == corners_.cend() || corner->flat >= flat + block)) {
        // A block along dimension 0 without corners: every prefix
        // restarts at its first row and no row adds to it, so it repeats
        // the previous block, or stays zero.
        if (flat > 0) {
          std::copy(out.data() + flat - block, out.data() + flat,
                    out.data() + flat);
        }
        flat += block;
        ++index[0];
        continue;
      }
      const Word* in = running.data();
      bool in_zero = !running_sum(corner, flat, running.data(), width);
      for (std::size_t d = rank - 1; d-- > 1;) {
        const std::size_t at =
            flat % static_cast<std::size_t>(target.strides[d]);
        Word* into = prefix[d].data() + at;
        if (index[d] == 0 && in_zero) {
          std::fill(into, into + width, Word{0});
        } else if (index[d] == 0) {
          std::copy(in, in + width, into);
        } else if (!in_zero) {
          add_rows(into, in, into, width);
        }
        in = into;
        in_zero = false;
      }
      Word* into = out.data() + flat;
      if (index[0] > 0) {
        if (in_zero) {
          std::copy(into - block, into - block + width, into);
        } else {
          add_rows(into - block, in, into, width);
        }
      } else if (!in_zero) {
        std::copy(in, in + width, into);
      }
      flat += width;
      for (std::size_t d = index.size(); d-- > 0;) {
        if (++index[d] < target.shape[d]) break;
        index[d] = 0;
      }
    }
    return out;
  }

  // Writes the running sum of the corners in [flat, flat + width) into
  // row[0, width) and moves `corner` past them. Returns false, writing
  // nothing, when there are none.
  template <class Word>
  bool running_sum(std::vector<Corner>::const_iterator& corner,
                   std::size_t flat, Word* row, std::size_t width) const {
    if (corner == corners_.cend() || corner->flat >= flat + width) {
      return false;
    }
    Word sum = 0;
    std::size_t filled = 0;
    for (; corner != corners_.cend() && corner->flat < flat + width;
         ++corner) {
      const std::size_t at = corner->flat - flat;
      std::fill(row + filled, row + at, sum);
      filled = at;
      sum = static_cast<Word>(sum + corner->weight);
    }
    std::fill(row + filled, row + width, sum);
    return true;
  }

  template <class Word>
  static void add_rows(const Word* a, const Word* b, Word* into,
                       std::size_t width) {
    for (std::size_t t = 0; t < width; ++t) {
      into[t] = static_cast<Word>(a[t] + b[t]);
    }
  }

  const SymbolMap& symbols_;
  bool counts_;
  PipelineResult& result_;
  std::vector<Target> targets_;
  std::vector<Corner> corners_;
  ir::StateSchedule schedule_;
  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
};

}  // namespace

const char* closed_form_counts(const Sdfg& sdfg, const SymbolMap& symbols,
                               bool counts, PipelineResult& result) {
  return Counter(symbols, counts, result).run(sdfg);
}

}  // namespace dmv::sim::detail
