#pragma once

// The two interactive slider sweeps every identity suite runs as one
// more input: hdiff's K drag at I = J = 8 and BERT Fused2's SM drag at
// bert_small, under the metric set an interactive step subscribes to
// (counts, misses at 512 lines, element stats). Each suite checks its
// own contract on them: materialized == streaming == the serial oracle
// (pipeline_test), session == uncached (session_test), serial ==
// parallel == batched trace (determinism_test), delta == cold
// (incremental_test), codec round trip (store_test), engine at 8
// threads == 1 (metric_merge_test) and closed-form == simulated counts
// (closed_form_counts_test).

#include <cstdint>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sweep_cases {

struct Sweep {
  std::string name;
  ir::Sdfg sdfg;
  std::vector<symbolic::SymbolMap> bindings;  ///< Slider positions, in order.
};

inline sim::PipelineConfig sweep_config() {
  sim::PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 512;
  config.element_stats = true;
  return config;
}

inline Sweep hdiff_sweep() {
  Sweep sweep{"hdiff", workloads::hdiff(workloads::HdiffVariant::Baseline),
              {}};
  for (const std::int64_t k : {2, 3, 4}) {
    sweep.bindings.push_back({{"I", 8}, {"J", 8}, {"K", k}});
  }
  return sweep;
}

inline Sweep bert_sweep() {
  Sweep sweep{"bert", workloads::bert_encoder(workloads::BertStage::Fused2),
              {}};
  for (const std::int64_t sm : {4, 6}) {
    symbolic::SymbolMap binding = workloads::bert_small();
    binding["SM"] = sm;
    sweep.bindings.push_back(std::move(binding));
  }
  return sweep;
}

inline std::vector<Sweep> sweeps() { return {hdiff_sweep(), bert_sweep()}; }

}  // namespace dmv::sweep_cases
