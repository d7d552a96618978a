#include <stdexcept>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

namespace detail {

CompiledSpaceBounds::CompiledSpaceBounds(const IterationSpace& space) {
  // Parameters first, so every param has a slot even if no bound reads it.
  param_slots_.reserve(space.params.size());
  for (const std::string& param : space.params) {
    param_slots_.push_back(table_.intern(param));
  }
  dims_.reserve(space.ranges.size());
  for (const ir::Range& range : space.ranges) {
    Dim dim;
    dim.begin = symbolic::CompiledExpr::compile(range.begin, table_);
    dim.end = symbolic::CompiledExpr::compile(range.end, table_);
    dim.step = symbolic::CompiledExpr::compile(range.step, table_);
    dim.invariant = !dim.begin.reads_any(param_slots_) &&
                    !dim.end.reads_any(param_slots_) &&
                    !dim.step.reads_any(param_slots_);
    dims_.push_back(std::move(dim));
  }
  table_.bind(space.base, values_, bound_);
  // The space's own parameters start unbound even if the base binding
  // mentions them: iteration owns these names, so a bound never reads
  // an outer value of a reused parameter name.
  for (int slot : param_slots_) bound_[slot] = 0;
}

CompiledSpaceBounds::Triple CompiledSpaceBounds::eval(std::size_t dim) {
  Dim& d = dims_[dim];
  if (d.invariant && d.cached) return d.cache;
  // Parameters of this and inner dimensions are out of scope for this
  // bound; clear any value a previous sibling subtree left behind so a
  // forward reference fails as an unbound symbol.
  for (std::size_t q = dim; q < param_slots_.size(); ++q) {
    bound_[param_slots_[q]] = 0;
  }
  Triple triple;
  const std::vector<std::string>& names = table_.names();
  triple.begin = d.begin.evaluate(values_.data(), bound_.data(), &names);
  triple.end = d.end.evaluate(values_.data(), bound_.data(), &names);
  triple.step = d.step.evaluate(values_.data(), bound_.data(), &names);
  if (d.invariant) {
    d.cache = triple;
    d.cached = true;
  }
  return triple;
}

void CompiledSpaceBounds::set_param(std::size_t dim, std::int64_t value) {
  const int slot = param_slots_[dim];
  values_[slot] = value;
  bound_[slot] = 1;
}

}  // namespace detail

std::int64_t IterationSpace::size() const {
  // Fast path: when no range reads the space's own parameters, the point
  // count is the product of per-dimension trip counts — no enumeration.
  // Dimensions are checked in order and a zero-trip dimension
  // short-circuits, so errors surface (or don't) exactly as they would
  // during iteration.
  bool independent = true;
  for (const ir::Range& range : ranges) {
    std::set<std::string> free;
    range.begin.collect_free_symbols(free);
    range.end.collect_free_symbols(free);
    range.step.collect_free_symbols(free);
    for (const std::string& param : params) {
      if (free.count(param)) {
        independent = false;
        break;
      }
    }
    if (!independent) break;
  }
  if (independent) {
    std::int64_t count = 1;
    for (const ir::Range& range : ranges) {
      const std::int64_t begin = range.begin.evaluate(base);
      const std::int64_t end = range.end.evaluate(base);
      const std::int64_t step = range.step.evaluate(base);
      if (step <= 0) {
        throw std::invalid_argument("IterationSpace: non-positive step");
      }
      if (end < begin) return 0;
      count *= (end - begin) / step + 1;
    }
    return count;
  }
  std::int64_t count = 0;
  for_each([&](std::span<const std::int64_t>) { ++count; });
  return count;
}

IterationSpace IterationSpace::from(const ir::MapInfo& info,
                                    const SymbolMap& symbols) {
  if (info.params.size() != info.ranges.size()) {
    throw std::invalid_argument("IterationSpace: malformed map '" +
                                info.label + "'");
  }
  IterationSpace space;
  space.params = info.params;
  space.ranges = info.ranges;
  space.base = symbols;
  return space;
}

}  // namespace dmv::sim
