#pragma once

// Global-view static analyses (paper §IV).
//
// Everything here is computed WITHOUT executing the program: logical data
// movement volumes come from memlet annotations, operation counts from
// tasklet ASTs, and both stay symbolic in the program's input parameters.
// Binding a SymbolMap turns any metric into a number — that is the
// parametric scaling analysis of §IV-D, where the user drags a parameter
// slider and the heatmap re-colors instantly.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"

namespace dmv::analysis {

using ir::Edge;
using ir::NodeId;
using ir::Sdfg;
using ir::State;
using symbolic::Expr;
using symbolic::SymbolMap;

/// Stable reference to an edge of a specific state.
struct EdgeRef {
  int state_index = 0;
  std::size_t edge_index = 0;
};

/// Stable reference to a node of a specific state.
struct NodeRef {
  int state_index = 0;
  NodeId node = ir::kNoNode;
};

/// The map scope an edge executes in: the map entry whose body contains
/// it, or kNoNode for top-level edges.
NodeId edge_scope(const State& state, const Edge& edge);

/// Product of iteration counts of all maps enclosing `scope` (inclusive).
Expr scope_iterations(const State& state, NodeId scope);

/// Total elements moved along an edge over the whole state execution:
/// per-traversal volume times enclosing map iterations.
Expr total_edge_elements(const State& state, const Edge& edge);
/// Same, in bytes (elements * element size of the referenced container).
Expr total_edge_bytes(const Sdfg& sdfg, const State& state, const Edge& edge);

/// Logical data-movement volume of every non-empty edge (the metric
/// behind the paper's global heatmap, Fig 1 and Fig 6).
struct EdgeVolume {
  EdgeRef ref;
  std::string data;
  Expr elements;
  Expr bytes;
};
std::vector<EdgeVolume> edge_volumes(const Sdfg& sdfg);

/// Sum of all logical movement in bytes across the program.
Expr total_movement_bytes(const Sdfg& sdfg);

/// Free-symbol reachability of the simulation inputs: every declared
/// program symbol that occurs in a container shape/stride/offset, a map
/// bound, or a memlet subset/volume. A symbol NOT in this set cannot
/// change any simulated trace or derived metric under any binding, so
/// the session layer keys its simulation caches on exactly this
/// restriction of the binding (changing an unreached symbol is a cache
/// hit, not an invalidation).
std::set<std::string> simulation_symbols(const Sdfg& sdfg);

/// Closed-form metric bundle (delta-recomputation Tier 1): every metric
/// with a simulation-free answer, kept as interned symbolic expressions
/// over the program's declared symbols. Evaluating the bundle under a
/// binding is O(DAG) with memoized simplify — a slider step that only
/// touches these metrics never runs the simulator. The event/execution
/// totals mirror the trace planner's exact counting, so for any binding
/// the planner can model, `total_events` evaluates to
/// TracePlan::total_events (fuzz-checked by incremental_test).
struct ClosedFormMetrics {
  Expr total_events;      ///< Simulated access events (all containers).
  Expr total_executions;  ///< Tasklet-execution instances.
  Expr flops;             ///< total_operations(sdfg).
  Expr movement_bytes;    ///< total_movement_bytes(sdfg) (logical).
  Expr footprint_bytes;   ///< Sum of logical container sizes.
  /// Container names in simulation placement order, index-aligned with
  /// the per-container event expressions below.
  std::vector<std::string> containers;
  std::vector<Expr> reads_per_container;   ///< Simulated read events.
  std::vector<Expr> writes_per_container;  ///< Simulated write events.
  /// Declared program symbols any expression above reaches.
  std::set<std::string> symbols;
  /// True when every expression is closed over the declared symbols.
  /// False for structures whose counts depend on locally-bound map
  /// parameters in a way simplification cannot eliminate (e.g.
  /// triangular iteration spaces) — evaluation would throw.
  bool exact = true;
};
/// Builds the bundle.
ClosedFormMetrics closed_form_metrics(const Sdfg& sdfg);

/// One evaluation of a ClosedFormMetrics bundle under a binding.
struct ClosedFormValues {
  std::int64_t total_events = 0;
  std::int64_t total_executions = 0;
  std::int64_t flops = 0;
  std::int64_t movement_bytes = 0;
  std::int64_t footprint_bytes = 0;
  /// flops / movement_bytes (0 when no movement).
  double arithmetic_intensity = 0;
  std::vector<std::string> containers;
  std::vector<std::int64_t> reads;
  std::vector<std::int64_t> writes;
};
/// Evaluates every expression of the bundle. Throws
/// symbolic::UnboundSymbolError when the bundle is not exact (or the
/// binding misses a reached symbol).
ClosedFormValues evaluate_closed_form(const ClosedFormMetrics& metrics,
                                      const SymbolMap& symbols);

/// Arithmetic operations executed by one tasklet node over the whole
/// state (per-execution AST count times enclosing map iterations).
Expr tasklet_operations(const State& state, NodeId tasklet);

/// Operation count of every tasklet (the §IV-B arithmetic heatmap).
struct NodeOps {
  NodeRef ref;
  std::string label;
  Expr operations;
};
std::vector<NodeOps> tasklet_operation_counts(const Sdfg& sdfg);

/// Whole-program operation total.
Expr total_operations(const Sdfg& sdfg);

/// Arithmetic intensity of every top-level map scope, for the intensity
/// heatmap: operations executed inside the scope divided by bytes
/// crossing its entry/exit boundary (§IV-B). Needs a binding because the
/// ratio is generally not a polynomial.
struct MapIntensity {
  NodeRef ref;
  std::string label;
  double operations = 0;
  double boundary_bytes = 0;
  double intensity = 0;
};
std::vector<MapIntensity> map_intensities(const Sdfg& sdfg,
                                          const SymbolMap& symbols);

/// Edges ranked by evaluated volume, largest first — the "click the red
/// edges" bottleneck-detection workflow of §VI-A.
struct RankedEdge {
  EdgeRef ref;
  std::string data;
  double bytes = 0;
};
std::vector<RankedEdge> rank_edges_by_volume(const Sdfg& sdfg,
                                             const SymbolMap& symbols);

/// Parametric scaling analysis (§IV-D): numerically probes how a metric
/// grows in each symbol by evaluating at `base` and at the same binding
/// with one symbol scaled by `factor`, reporting the power-law exponent
/// log_factor(m2/m1). Exponent 0 = no influence; 1 = linear; 2 =
/// quadratic; ...
struct SymbolScaling {
  std::string symbol;
  double exponent = 0;
  double base_value = 0;    ///< metric at `base`
  double scaled_value = 0;  ///< metric with this symbol scaled
};
std::vector<SymbolScaling> scaling_exponents(const Expr& metric,
                                             const SymbolMap& base,
                                             std::int64_t factor = 2);

/// Convenience: exponents of the total-movement metric per program symbol.
std::vector<SymbolScaling> movement_scaling(const Sdfg& sdfg,
                                            const SymbolMap& base,
                                            std::int64_t factor = 2);

/// Before/after comparison of two program versions (the Fig 6 panels
/// side by side): per-container logical movement in each version and the
/// delta. Containers present in only one version (e.g. transients that
/// fusion eliminated) appear with a zero on the other side.
struct ContainerDelta {
  std::string data;
  double before_bytes = 0;
  double after_bytes = 0;
  double delta() const { return after_bytes - before_bytes; }
};
struct MovementDiff {
  std::vector<ContainerDelta> containers;  ///< Sorted by |delta|, desc.
  double before_total = 0;
  double after_total = 0;
};
MovementDiff diff_movement(const Sdfg& before, const Sdfg& after,
                           const SymbolMap& symbols);

}  // namespace dmv::analysis
