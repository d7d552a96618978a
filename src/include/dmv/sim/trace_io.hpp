#pragma once

// Access-trace serialization (paper §VIII-d).
//
// The Discussion notes that for dynamic or irregular programs — where
// the small-scale simulation cannot derive accesses statically — "the
// global and local visualization techniques ... can similarly be used to
// analyze and explore traditional instrumentation data". This module is
// that path: traces recorded by an external tool (Pin, perf mem, a
// hand-instrumented app) can be imported in a simple CSV format and then
// flow through the SAME stack — access counts, reuse distances, miss
// classification, movement estimates, renderers — as simulated traces.
// Simulated traces export to the same format for archival and diffing.
//
// Format (line oriented):
//   dmvtrace 1
//   container <name> <element_size> <base_address> <shape...> ; <strides...>
//   ...one line per container...
//   events
//   <time> <container_index> <flat_index> <r|w> <execution> <tasklet>
//   ...
// An event's time must equal its index among the events (0, 1, 2, ...),
// and its execution id must lie in [0, INT64_MAX).

#include <iosfwd>
#include <string>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// Writes the trace; throws on stream failure.
void write_trace(const AccessTrace& trace, std::ostream& out);
std::string trace_to_string(const AccessTrace& trace);

/// Parses a trace; throws std::runtime_error with a line number on
/// malformed input.
AccessTrace read_trace(std::istream& in);
AccessTrace trace_from_string(const std::string& text);

}  // namespace dmv::sim
