#include "dmv/symbolic/batched.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmv::symbolic {

void LaneEnv::reset(std::span<const std::int64_t> values,
                    std::span<const char> bound, int width) {
  if (width < 1 || width > kMaxLaneWidth) {
    throw std::invalid_argument("LaneEnv: width out of [1, 32]");
  }
  if (values.size() != bound.size()) {
    throw std::invalid_argument("LaneEnv: values/bound size mismatch");
  }
  width_ = width;
  bound_.assign(bound.begin(), bound.end());
  values_.resize(values.size() * static_cast<std::size_t>(width));
  for (std::size_t s = 0; s < values.size(); ++s) {
    std::int64_t* row = values_.data() + s * width_;
    for (int l = 0; l < width_; ++l) row[l] = values[s];
  }
}

void LaneEnv::set_lanes(int slot, std::span<const std::int64_t> lane_values) {
  if (lane_values.size() != static_cast<std::size_t>(width_)) {
    throw std::invalid_argument("LaneEnv: lane value count != width");
  }
  std::int64_t* row = values_.data() + static_cast<std::size_t>(slot) * width_;
  std::copy(lane_values.begin(), lane_values.end(), row);
  bound_[slot] = 1;
}

namespace {

// Matches the scalar evaluator's inline capacity; programs deeper than
// this spill the SoA stack to the heap.
constexpr int kInlineDepth = 32;

}  // namespace

// One template instantiation per common width keeps the lane trip count
// a compile-time constant so the per-lane bodies unroll/vectorize; kW=0
// is the generic runtime-width fallback. Arithmetic per lane replicates
// floor_div_i64 / ceil_div_i64 / mod_i64 exactly and calls pow_i64,
// except that throwing conditions set the lane's fault bit (value 0)
// instead — a faulted lane's garbage feeds later instructions harmlessly
// because every division/modulo re-checks its own operands.
template <int kW>
std::uint32_t BatchedCompiledExpr::run_lanes(const LaneEnv& env,
                                             std::int64_t* out,
                                             int runtime_width) const {
  const int W = kW > 0 ? kW : runtime_width;
  const std::uint32_t all_lanes =
      W >= 32 ? 0xffffffffu : ((std::uint32_t{1} << W) - 1u);

  std::int64_t inline_stack[kInlineDepth * (kW > 0 ? kW : 1)];
  std::vector<std::int64_t> heap_stack;
  std::int64_t* stack = inline_stack;
  if (kW == 0 || scalar_.max_stack_ > kInlineDepth) {
    heap_stack.resize(static_cast<std::size_t>(scalar_.max_stack_) * W);
    stack = heap_stack.data();
  }

  std::uint32_t fault = 0;
  std::size_t top = 0;  // Next free stack row.
  for (const CompiledExpr::Inst& inst : scalar_.code_) {
    switch (inst.op) {
      case CompiledExpr::Op::PushConst: {
        std::int64_t* row = stack + top * W;
        for (int l = 0; l < W; ++l) row[l] = inst.arg;
        ++top;
        break;
      }
      case CompiledExpr::Op::PushSlot: {
        const int slot = static_cast<int>(inst.arg);
        std::int64_t* row = stack + top * W;
        if (!env.bound(slot)) {
          fault = all_lanes;  // Unbound is environment-wide, not per lane.
          for (int l = 0; l < W; ++l) row[l] = 0;
        } else {
          const std::int64_t* src = env.lanes(slot);
          for (int l = 0; l < W; ++l) row[l] = src[l];
        }
        ++top;
        break;
      }
      case CompiledExpr::Op::Add: {
        const std::size_t n = static_cast<std::size_t>(inst.arg);
        std::int64_t* acc = stack + (top - n) * W;
        for (std::size_t i = 1; i < n; ++i) {
          const std::int64_t* row = stack + (top - n + i) * W;
          for (int l = 0; l < W; ++l) acc[l] = wrapping_add(acc[l], row[l]);
        }
        top -= n - 1;
        break;
      }
      case CompiledExpr::Op::Mul: {
        const std::size_t n = static_cast<std::size_t>(inst.arg);
        std::int64_t* acc = stack + (top - n) * W;
        for (std::size_t i = 1; i < n; ++i) {
          const std::int64_t* row = stack + (top - n + i) * W;
          for (int l = 0; l < W; ++l) acc[l] = wrapping_mul(acc[l], row[l]);
        }
        top -= n - 1;
        break;
      }
      case CompiledExpr::Op::FloorDiv: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) {
          if (!quotient_fits_i64(a[l], b[l])) {
            fault |= std::uint32_t{1} << l;
            a[l] = 0;
          } else {
            std::int64_t q = a[l] / b[l];
            if ((a[l] % b[l] != 0) && ((a[l] < 0) != (b[l] < 0))) --q;
            a[l] = q;
          }
        }
        --top;
        break;
      }
      case CompiledExpr::Op::CeilDiv: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) {
          if (!quotient_fits_i64(a[l], b[l])) {
            fault |= std::uint32_t{1} << l;
            a[l] = 0;
          } else {
            std::int64_t q = a[l] / b[l];
            if ((a[l] % b[l] != 0) && ((a[l] < 0) == (b[l] < 0))) ++q;
            a[l] = q;
          }
        }
        --top;
        break;
      }
      case CompiledExpr::Op::Mod: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) {
          if (b[l] == 0) {
            fault |= std::uint32_t{1} << l;
            a[l] = 0;
          } else if (b[l] == -1) {
            a[l] = 0;
          } else {
            std::int64_t r = a[l] % b[l];
            if (r != 0 && ((r < 0) != (b[l] < 0))) r += b[l];
            a[l] = r;
          }
        }
        --top;
        break;
      }
      case CompiledExpr::Op::Min: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) a[l] = std::min(a[l], b[l]);
        --top;
        break;
      }
      case CompiledExpr::Op::Max: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) a[l] = std::max(a[l], b[l]);
        --top;
        break;
      }
      case CompiledExpr::Op::Pow: {
        const std::int64_t* b = stack + (top - 1) * W;
        std::int64_t* a = stack + (top - 2) * W;
        for (int l = 0; l < W; ++l) {
          if (b[l] < 0) {
            fault |= std::uint32_t{1} << l;
            a[l] = 0;
          } else {
            a[l] = pow_i64(a[l], b[l]);
          }
        }
        --top;
        break;
      }
    }
  }
  for (int l = 0; l < W; ++l) out[l] = stack[l];
  return fault & all_lanes;
}

std::uint32_t BatchedCompiledExpr::evaluate(const LaneEnv& env,
                                            std::int64_t* out) const {
  switch (env.width()) {
    case 4:
      return run_lanes<4>(env, out, 4);
    case 8:
      return run_lanes<8>(env, out, 8);
    case 16:
      return run_lanes<16>(env, out, 16);
    default:
      return run_lanes<0>(env, out, env.width());
  }
}

}  // namespace dmv::symbolic
