#pragma once

// Lane-batched compiled expression evaluation.
//
// `CompiledExpr::evaluate` walks the postfix program for one iteration
// point; the simulator's innermost loops re-run the same handful of
// programs millions of times with only the innermost map parameter
// changing. `BatchedCompiledExpr` runs the identical instruction stream
// over W iteration points at once: the environment is structure-of-
// arrays (`int64_t lanes[W]` per slot, see `LaneEnv`), loop-invariant
// slots are broadcast once, and each instruction dispatch advances all
// W lanes — the lane-VM idiom, amortizing dispatch and letting the
// per-lane bodies vectorize.
//
// Exception contract: batched evaluation NEVER throws. Every per-lane
// arithmetic is computed with the exact formulas of the scalar helpers
// (`floor_div_i64` & co.), and each condition that would make the
// scalar engine throw (`std::domain_error` on division/modulo by zero, a
// quotient that does not fit in int64 or a negative Pow exponent,
// `UnboundSymbolError` on an unbound slot) instead sets that lane's bit
// in the returned fault mask; the lane's value becomes 0 and evaluation
// continues. A caller that needs scalar-identical failure semantics
// replays the faulting batch through the scalar engine, which throws the
// original exception at the exact point serial order reaches first —
// lanes that do not fault produce bit-identical values to scalar
// evaluation, so only faulting batches ever pay the replay.

#include <cstdint>
#include <span>
#include <vector>

#include "dmv/symbolic/compiled.hpp"

namespace dmv::symbolic {

/// Fault masks are 32-bit: one bit per lane.
inline constexpr int kMaxLaneWidth = 32;

/// A slot-indexed environment holding W values per slot, slot-major
/// (`lanes(slot)[lane]`). Bound-ness is per slot, uniform across lanes:
/// the batched engine models W iteration points of ONE loop, which bind
/// and unbind the same parameters in lockstep.
class LaneEnv {
 public:
  /// Rebuilds the environment with `width` lanes over `values.size()`
  /// slots, broadcasting every slot's scalar value (and bound flag) to
  /// all lanes. Throws std::invalid_argument unless
  /// 1 <= width <= kMaxLaneWidth.
  void reset(std::span<const std::int64_t> values,
             std::span<const char> bound, int width);

  /// Overwrites `slot` with per-lane values (size must be width()) and
  /// marks it bound.
  void set_lanes(int slot, std::span<const std::int64_t> lane_values);

  int width() const { return width_; }
  const std::int64_t* lanes(int slot) const {
    return values_.data() + static_cast<std::size_t>(slot) * width_;
  }
  bool bound(int slot) const { return bound_[slot] != 0; }

 private:
  std::vector<std::int64_t> values_;  ///< Slot-major: [slot * width + lane].
  std::vector<char> bound_;
  int width_ = 1;
};

/// A `CompiledExpr` evaluated W lanes per instruction dispatch.
class BatchedCompiledExpr {
 public:
  /// Default: the constant 0 in every lane.
  BatchedCompiledExpr() = default;
  explicit BatchedCompiledExpr(CompiledExpr scalar)
      : scalar_(std::move(scalar)) {}

  /// Flattens `expr` through the shared scalar compiler (memoized in
  /// `table` like any other compile).
  static BatchedCompiledExpr compile(const Expr& expr, SymbolTable& table) {
    return BatchedCompiledExpr(CompiledExpr::compile(expr, table));
  }

  /// The scalar program this wraps — the replay target on faults.
  const CompiledExpr& scalar() const { return scalar_; }

  /// Evaluates all `env.width()` lanes, writing one result per lane to
  /// `out[0 .. width)`. Returns the fault mask: bit L set means lane L
  /// hit a condition the scalar engine throws on (its out value is 0).
  /// An unbound referenced slot faults every lane. Never throws.
  std::uint32_t evaluate(const LaneEnv& env, std::int64_t* out) const;

 private:
  template <int kW>
  std::uint32_t run_lanes(const LaneEnv& env, std::int64_t* out,
                          int runtime_width) const;

  CompiledExpr scalar_;
};

}  // namespace dmv::symbolic
