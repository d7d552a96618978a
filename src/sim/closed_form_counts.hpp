#pragma once

// Closed-form per-element access counts (internal; include only from
// src/sim).
//
// When every map is a rectangle and every memlet dimension either reads
// no map parameter or is exactly `p + c` for one enclosing parameter p,
// the elements a memlet touches over its whole scope form one box, and
// each element of that box is touched once per point of the enclosing
// parameters the memlet does not use. Per-element counts are then sums
// of weighted translated boxes: the boxes' difference-array corners,
// swept once in flat order, give the same integers the simulator's
// trace scatters into count arrays, in O(elements) instead of
// O(events). See docs/simulation.md, "Closed-form counts", for the
// rule, the sweep and every decline reason.

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim::detail {

/// Fills `result`'s events, executions, containers and — when `counts`
/// — per-element read/write counts, exactly as a counts-only
/// MetricPipeline run over simulate()'s trace would, without
/// simulating. Each (container, direction) column is swept on the
/// calling thread straight into its words. Returns nullptr when it
/// answered; otherwise a static string naming the first condition the
/// program or binding failed ("closed form: ..."), with `result`
/// unspecified.
/// Never throws for a program the simulator rejects: unbound symbols,
/// bad extents and out-of-bounds subsets decline, so the simulator
/// raises its own error; a failed allocation declines too.
const char* closed_form_counts(const Sdfg& sdfg, const SymbolMap& symbols,
                               bool counts, PipelineResult& result);

}  // namespace dmv::sim::detail
