#include "dmv/analysis/analysis.hpp"

#include <cmath>
#include <stdexcept>

#include "dmv/par/par.hpp"
#include "dmv/symbolic/compiled.hpp"

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
  // Flat (SymbolId, value) binding: probe evaluations copy a contiguous
  // vector and binary-search it instead of copying a string-keyed map.
  const symbolic::SymbolBinding base_binding(base);
  const double base_value =
      static_cast<double>(metric.evaluate(base_binding));
  // Each symbol's probe evaluation is independent; entries land in
  // symbol order regardless of scheduling.
  par::parallel_for(symbols.size(), 1, [&](std::size_t begin,
                                           std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      symbolic::SymbolBinding scaled = base_binding;
      scaled.set(symbols[s], base.at(symbols[s]) * factor);
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

std::vector<SweepPoint> sweep_metric(const Expr& metric, const SymbolMap& base,
                                     const std::string& symbol,
                                     const std::vector<std::int64_t>& values) {
  for (const std::string& name : metric.free_symbols()) {
    if (name != symbol && !base.contains(name)) {
      throw std::invalid_argument(
          "sweep_metric: base binding misses symbol '" + name + "'");
    }
  }
  // Compile once; every binding evaluation is then an array-indexed pass.
  symbolic::SymbolTable table;
  const symbolic::CompiledExpr compiled =
      symbolic::CompiledExpr::compile(metric, table);
  std::vector<std::int64_t> env;
  std::vector<char> bound;
  table.bind(base, env, bound);
  const int slot = table.lookup(symbol);
  if (slot >= 0) bound[slot] = 1;

  std::vector<SweepPoint> series(values.size());
  par::parallel_for(values.size(), 16, [&](std::size_t begin,
                                           std::size_t end) {
    // Per-block copy of the environment: blocks write disjoint slots of
    // the series, and each binding differs only in the swept slot.
    std::vector<std::int64_t> local = env;
    for (std::size_t i = begin; i < end; ++i) {
      if (slot >= 0) local[slot] = values[i];
      series[i].value = values[i];
      series[i].metric = static_cast<double>(
          compiled.evaluate(local.data(), bound.data(), &table.names()));
    }
  });
  return series;
}

}  // namespace dmv::analysis
