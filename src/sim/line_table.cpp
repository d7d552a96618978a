#include <stdexcept>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "metric_detail.hpp"

namespace dmv::sim {

LineTable build_line_table(const AccessTrace& trace, int line_size) {
  if (line_size <= 0) {
    throw std::invalid_argument("build_line_table: bad line size");
  }
  LineTable table;
  table.line_size = line_size;
  const std::vector<detail::ContainerAddressing> addressing =
      detail::addressing_for(trace.layouts);
  const std::size_t n = trace.events.size();
  table.lines.resize(n);
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  par::parallel_for(n, 1 << 14, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      table.lines[i] = addressing[static_cast<std::size_t>(containers[i])]
                           .line_of(flats[i], line_size);
    }
  });
  return table;
}

}  // namespace dmv::sim
