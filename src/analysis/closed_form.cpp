#include <utility>

#include "dmv/analysis/analysis.hpp"

// Delta-recomputation Tier 1: closed-form expressions for every metric
// the simulator's exact counting can answer without generating events.
// The counting rules mirror sim/trace_plan.cpp symbolically:
//
//   * trip count of an inclusive range [begin : end : step] is
//     max(0, floor((end - begin) / step) + 1) — identical to the
//     planner's range_trips for positive steps;
//   * a memlet subset visits max(1, trips) elements per dimension (the
//     simulator's odometer emits at least once per dimension, and a
//     scalar subset is one element);
//   * a tasklet's per-execution events are the sum of its input subset
//     sizes plus its output subset sizes (a WCR output is one write per
//     element), times the product of enclosing map trip counts;
//   * a copy moves 2 * n_src events (read + write) per traversal.
//
// Simplification collapses outer-parameter-dependent bounds for the
// ubiquitous A[i, j:j+2]-style subsets ((i+2) - i = 2); when a count
// genuinely depends on a locally-bound map parameter (triangular
// spaces), the bundle is marked inexact and evaluation throws.

namespace dmv::analysis {

namespace {

using ir::Node;
using ir::NodeKind;

Expr range_trips(const ir::Range& range) {
  return symbolic::max(Expr(0), (range.end - range.begin) / range.step + 1);
}

Expr subset_elements(const ir::Subset& subset) {
  Expr n = 1;
  for (const ir::Range& range : subset.ranges) {
    n = n * symbolic::max(Expr(1), range_trips(range));
  }
  return n;
}

/// Product of trip counts of every map enclosing `scope` (inclusive).
Expr scope_trips(const State& state, NodeId scope) {
  Expr total = 1;
  for (NodeId current = scope; current != ir::kNoNode;
       current = state.node(current).scope_parent) {
    for (const ir::Range& range : state.node(current).map.ranges) {
      total = total * range_trips(range);
    }
  }
  return total;
}

}  // namespace

ClosedFormMetrics closed_form_metrics(const Sdfg& sdfg) {
  ClosedFormMetrics metrics;
  std::map<std::string, int> container_ids;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    container_ids.emplace(name,
                          static_cast<int>(metrics.containers.size()));
    metrics.containers.push_back(name);
    Expr elements = 1;
    for (const Expr& extent : descriptor.shape) elements = elements * extent;
    metrics.footprint_bytes =
        metrics.footprint_bytes + elements * descriptor.element_size;
  }
  metrics.reads_per_container.assign(metrics.containers.size(), Expr(0));
  metrics.writes_per_container.assign(metrics.containers.size(), Expr(0));

  for (const State& state : sdfg.states()) {
    const ir::StateSchedule schedule(state);
    for (ir::NodeId id : schedule.order) {
      const Node& node = state.node(id);
      if (node.kind == NodeKind::Tasklet) {
        const Expr iterations = scope_trips(state, node.scope_parent);
        metrics.total_executions = metrics.total_executions + iterations;
        for (const ir::Edge* edge : schedule.in_adjacency[id]) {
          if (edge->memlet.is_empty()) continue;
          const Expr n =
              subset_elements(edge->memlet.subset) * iterations;
          const int c = container_ids.at(edge->memlet.data);
          metrics.reads_per_container[c] =
              metrics.reads_per_container[c] + n;
          metrics.total_events = metrics.total_events + n;
        }
        for (const ir::Edge* edge : schedule.out_adjacency[id]) {
          if (edge->memlet.is_empty()) continue;
          const Expr n =
              subset_elements(edge->memlet.subset) * iterations;
          const int c = container_ids.at(edge->memlet.data);
          metrics.writes_per_container[c] =
              metrics.writes_per_container[c] + n;
          metrics.total_events = metrics.total_events + n;
        }
      } else if (node.kind == NodeKind::Access) {
        for (const ir::Edge* edge : schedule.out_adjacency[id]) {
          if (edge->memlet.is_empty()) continue;
          const Node& dst = state.node(edge->dst);
          if (dst.kind != NodeKind::Access) continue;
          const Expr iterations = scope_trips(state, node.scope_parent);
          const Expr n =
              subset_elements(edge->memlet.subset) * iterations;
          const int src = container_ids.at(edge->memlet.data);
          const int dest = container_ids.at(dst.data);
          metrics.reads_per_container[src] =
              metrics.reads_per_container[src] + n;
          metrics.writes_per_container[dest] =
              metrics.writes_per_container[dest] + n;
          metrics.total_events = metrics.total_events + n + n;
          metrics.total_executions = metrics.total_executions + n;
        }
      }
    }
  }

  metrics.flops = total_operations(sdfg);
  metrics.movement_bytes = total_movement_bytes(sdfg);

  std::set<std::string> reached;
  auto visit = [&reached](const Expr& e) { e.collect_free_symbols(reached); };
  visit(metrics.total_events);
  visit(metrics.total_executions);
  visit(metrics.flops);
  visit(metrics.movement_bytes);
  visit(metrics.footprint_bytes);
  for (const Expr& e : metrics.reads_per_container) visit(e);
  for (const Expr& e : metrics.writes_per_container) visit(e);
  const std::set<std::string> declared = sdfg.symbols();
  for (const std::string& symbol : reached) {
    if (declared.contains(symbol)) {
      metrics.symbols.insert(symbol);
    } else {
      // A locally-bound map parameter survived simplification: the
      // count is not closed over the program symbols.
      metrics.exact = false;
    }
  }
  return metrics;
}

ClosedFormValues evaluate_closed_form(const ClosedFormMetrics& metrics,
                                      const SymbolMap& symbols) {
  ClosedFormValues values;
  values.total_events = metrics.total_events.evaluate(symbols);
  values.total_executions = metrics.total_executions.evaluate(symbols);
  values.flops = metrics.flops.evaluate(symbols);
  values.movement_bytes = metrics.movement_bytes.evaluate(symbols);
  values.footprint_bytes = metrics.footprint_bytes.evaluate(symbols);
  values.arithmetic_intensity =
      values.movement_bytes == 0
          ? 0
          : static_cast<double>(values.flops) /
                static_cast<double>(values.movement_bytes);
  values.containers = metrics.containers;
  values.reads.reserve(metrics.reads_per_container.size());
  values.writes.reserve(metrics.writes_per_container.size());
  for (const Expr& e : metrics.reads_per_container) {
    values.reads.push_back(e.evaluate(symbols));
  }
  for (const Expr& e : metrics.writes_per_container) {
    values.writes.push_back(e.evaluate(symbols));
  }
  return values;
}

}  // namespace dmv::analysis
