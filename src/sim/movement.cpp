#include <map>
#include <set>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

IterationLineStats iteration_line_stats(const AccessTrace& trace,
                                        int container, int line_size) {
  const LineTable table = build_line_table(trace, line_size);
  const ConcreteLayout& layout = trace.layouts[container];
  const std::int64_t elements_per_line =
      std::max<std::int64_t>(1, line_size / layout.element_size);

  // Group this container's events by tasklet execution and line.
  std::map<std::int64_t, std::map<std::int64_t, std::set<std::int64_t>>>
      per_execution;  // execution -> line -> distinct elements used
  const std::size_t n = trace.events.size();
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  const std::span<const std::int64_t> executions =
      trace.events.execution_column();
  for (std::size_t i = 0; i < n; ++i) {
    if (containers[i] != container) continue;
    per_execution[executions[i]][table.lines[i]].insert(flats[i]);
  }

  IterationLineStats stats;
  double line_sum = 0;
  double utilization_sum = 0;
  for (const auto& [execution, lines] : per_execution) {
    line_sum += static_cast<double>(lines.size());
    std::int64_t used = 0;
    for (const auto& [line, elements] : lines) {
      used += static_cast<std::int64_t>(elements.size());
    }
    utilization_sum +=
        static_cast<double>(used) /
        static_cast<double>(elements_per_line *
                            static_cast<std::int64_t>(lines.size()));
    ++stats.executions;
  }
  if (stats.executions > 0) {
    stats.mean_lines_per_execution =
        line_sum / static_cast<double>(stats.executions);
    stats.mean_line_utilization =
        utilization_sum / static_cast<double>(stats.executions);
  }
  return stats;
}

}  // namespace dmv::sim
