#include "dmv/analysis/analysis.hpp"

#include <cmath>
#include <stdexcept>

#include "dmv/par/par.hpp"

namespace dmv::analysis {

std::vector<SymbolScaling> scaling_exponents(const Expr& metric,
                                             const SymbolMap& base,
                                             std::int64_t factor) {
  if (factor <= 1) {
    throw std::invalid_argument("scaling_exponents: factor must exceed 1");
  }
  // Check the binding covers the metric before any evaluation, so the
  // caller gets one actionable error instead of an evaluation failure.
  // free_symbols() reads the metric's intern-time symbol set — O(set),
  // not a tree walk.
  const std::set<std::string> free = metric.free_symbols();
  for (const std::string& symbol : free) {
    if (!base.contains(symbol)) {
      throw std::invalid_argument(
          "scaling_exponents: base binding misses symbol '" + symbol + "'");
    }
  }
  const std::vector<std::string> symbols(free.begin(), free.end());
  std::vector<SymbolScaling> result(symbols.size());
  const double base_value = static_cast<double>(metric.evaluate(base));
  // Each symbol's probe evaluation is independent; entries land in
  // symbol order regardless of scheduling.
  par::parallel_for(symbols.size(), 1, [&](std::size_t begin,
                                           std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      SymbolMap scaled = base;
      scaled[symbols[s]] = base.at(symbols[s]) * factor;
      SymbolScaling& entry = result[s];
      entry.symbol = symbols[s];
      entry.base_value = base_value;
      entry.scaled_value = static_cast<double>(metric.evaluate(scaled));
      if (base_value > 0 && entry.scaled_value > 0) {
        entry.exponent = std::log(entry.scaled_value / base_value) /
                         std::log(static_cast<double>(factor));
      }
    }
  });
  return result;
}

std::vector<SymbolScaling> movement_scaling(const Sdfg& sdfg,
                                            const SymbolMap& base,
                                            std::int64_t factor) {
  return scaling_exponents(total_movement_bytes(sdfg), base, factor);
}

}  // namespace dmv::analysis
