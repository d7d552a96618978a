#include <map>
#include <set>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim {

std::vector<std::int64_t> AccessCounts::total(int container) const {
  std::vector<std::int64_t> sum = reads.at(container).values();
  const CountColumn& w = writes.at(container);
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += w[i];
  return sum;
}

namespace {

// Int64 per-element tallies of one block; narrowed once at the end.
struct Tallies {
  std::vector<std::vector<std::int64_t>> reads;
  std::vector<std::vector<std::int64_t>> writes;
};

Tallies zero_tallies(const AccessTrace& trace) {
  Tallies tallies;
  tallies.reads.reserve(trace.layouts.size());
  tallies.writes.reserve(trace.layouts.size());
  for (const ConcreteLayout& layout : trace.layouts) {
    tallies.reads.emplace_back(layout.total_elements(), 0);
    tallies.writes.emplace_back(layout.total_elements(), 0);
  }
  return tallies;
}

void add_tallies(Tallies& into, const Tallies& from) {
  for (std::size_t c = 0; c < into.reads.size(); ++c) {
    for (std::size_t i = 0; i < into.reads[c].size(); ++i) {
      into.reads[c][i] += from.reads[c][i];
    }
    for (std::size_t i = 0; i < into.writes[c].size(); ++i) {
      into.writes[c][i] += from.writes[c][i];
    }
  }
}

// Shards the event range into one full-size accumulator per block and
// sums the blocks in order. Each accumulator is heavy (per-element
// arrays for every container), so the block count is capped by the
// thread knob; that makes the partition thread-dependent, which is safe
// here because integer additions commute — any partition joined in any
// order reproduces the serial counts bit for bit.
template <typename PerEvent>
AccessCounts sharded_counts(const AccessTrace& trace, PerEvent&& per_event) {
  const std::size_t n = trace.events.size();
  const std::size_t grain =
      par::grain_for(n, static_cast<std::size_t>(par::num_threads()),
                     std::size_t{1} << 15);
  const Tallies tallies = par::parallel_reduce(
      n, grain, zero_tallies(trace),
      [&](std::size_t begin, std::size_t end) {
        Tallies local = zero_tallies(trace);
        for (std::size_t i = begin; i < end; ++i) {
          per_event(trace.events[i], local);
        }
        return local;
      },
      [](Tallies& acc, Tallies&& block) { add_tallies(acc, block); });
  AccessCounts counts;
  for (std::size_t c = 0; c < tallies.reads.size(); ++c) {
    counts.reads.emplace_back(tallies.reads[c]);
    counts.writes.emplace_back(tallies.writes[c]);
  }
  return counts;
}

}  // namespace

AccessCounts related_accesses(const AccessTrace& trace,
                              const std::vector<Selection>& selected) {
  // Pass 1: find every tasklet-execution instance that touches a selected
  // element. Multiple selections stack additively, so an execution
  // touching two selected elements contributes twice (matching the
  // paper's "stacking the number of related accesses"). Per-block weight
  // maps merge by addition, so the parallel merge equals the serial scan.
  const std::size_t n = trace.events.size();
  using WeightMap = std::map<std::int64_t, std::int64_t>;
  const std::size_t grain = par::grain_for(n, 64, std::size_t{1} << 15);
  WeightMap execution_weight = par::parallel_reduce(
      n, grain, WeightMap{},
      [&](std::size_t begin, std::size_t end) {
        WeightMap local;
        for (std::size_t i = begin; i < end; ++i) {
          const AccessEvent& event = trace.events[i];
          for (const Selection& selection : selected) {
            if (event.container != selection.container) continue;
            for (std::int64_t flat : selection.flats) {
              if (event.flat == flat) {
                ++local[event.execution];
              }
            }
          }
        }
        return local;
      },
      [](WeightMap& acc, WeightMap&& block) {
        for (const auto& [execution, weight] : block) {
          acc[execution] += weight;
        }
      });
  // Pass 2: accumulate all accesses of those executions.
  return sharded_counts(
      trace, [&](const AccessEvent& event, Tallies& counts) {
        auto it = execution_weight.find(event.execution);
        if (it == execution_weight.end()) return;
        if (event.is_write) {
          counts.writes[event.container][event.flat] += it->second;
        } else {
          counts.reads[event.container][event.flat] += it->second;
        }
      });
}

}  // namespace dmv::sim
