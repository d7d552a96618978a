// Randomized whole-stack consistency tests: generate random (but valid)
// elementwise/stencil pipelines, then check system-level invariants that
// must hold for ANY program:
//   * the builder's output validates,
//   * JSON round-trips losslessly (analyses agree),
//   * simulated event counts equal the static per-edge volumes,
//   * map fusion preserves interpreter semantics,
//   * the fully-associative cache prediction matches the exact simulator.

#include <gtest/gtest.h>

#include <random>

#include "dmv/analysis/analysis.hpp"
#include "dmv/builder/program_builder.hpp"
#include "dmv/exec/interpreter.hpp"
#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/ir/validate.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/transforms/transforms.hpp"
#include "standalone_reference.hpp"

namespace dmv {
namespace {

struct RandomProgram {
  ir::Sdfg sdfg;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

// Builds a random pipeline of 2-6 rank-2 elementwise/shifted maps over
// [N, N] containers with a halo, chained through transients.
RandomProgram random_program(int seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> stage_count(2, 6);
  std::uniform_int_distribution<int> op_pick(0, 3);
  std::uniform_int_distribution<int> shift_pick(0, 2);

  builder::ProgramBuilder p("fuzz_" + std::to_string(seed));
  p.symbols({"N"});
  // Halo of 2 so shifted reads stay in bounds.
  p.array("in0", {"N + 2", "N + 2"});
  p.array("in1", {"N + 2", "N + 2"});
  RandomProgram program{ir::Sdfg("placeholder"), {"in0", "in1"}, {}};

  p.state("body");
  std::vector<std::string> live{"in0", "in1"};  // Readable containers.
  std::vector<bool> live_has_halo{true, true};
  const int stages = stage_count(rng);
  for (int s = 0; s < stages; ++s) {
    std::uniform_int_distribution<int> source_pick(
        0, static_cast<int>(live.size()) - 1);
    const int source = source_pick(rng);
    const bool halo = live_has_halo[source];
    const std::string destination =
        s + 1 == stages ? "result" : "t" + std::to_string(s);
    if (s + 1 == stages) {
      p.array(destination, {"N", "N"});
      program.outputs.push_back(destination);
    } else {
      p.transient(destination, {"N", "N"});
    }

    // Subset: identity for halo-free sources, small shift when the
    // source has a halo.
    std::string subset = "i, j";
    if (halo) {
      const int di = shift_pick(rng), dj = shift_pick(rng);
      subset = "i + " + std::to_string(di) + ", j + " + std::to_string(dj);
    }
    const char* codes[] = {"o = v * 2 + 1", "o = v - 3", "o = v * v",
                           "o = 0.5 * v + 0.25"};
    p.mapped_tasklet("stage" + std::to_string(s),
                     {{"i", "0:N-1"}, {"j", "0:N-1"}},
                     {{"v", live[source], subset}}, codes[op_pick(rng)],
                     {{"o", destination, "i, j"}});
    live.push_back(destination);
    live_has_halo.push_back(false);
  }
  program.sdfg = p.take();
  return program;
}

std::vector<double> run_random(ir::Sdfg& sdfg,
                               const RandomProgram& program,
                               const symbolic::SymbolMap& env, int seed) {
  exec::Buffers buffers(sdfg, env);
  std::mt19937 rng(seed * 7 + 1);
  std::uniform_real_distribution<double> value(-2, 2);
  for (const std::string& input : program.inputs) {
    std::vector<double> data(buffers.layout(input).total_elements());
    for (double& x : data) x = value(rng);
    buffers.set_logical(input, data);
  }
  exec::run(sdfg, env, buffers);
  std::vector<double> out;
  for (const std::string& output : program.outputs) {
    std::vector<double> data = buffers.logical(output);
    out.insert(out.end(), data.begin(), data.end());
  }
  return out;
}

class Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Fuzz, BuilderOutputValidates) {
  RandomProgram program = random_program(GetParam());
  EXPECT_TRUE(ir::validate(program.sdfg).empty());
}

TEST_P(Fuzz, JsonRoundTripAgrees) {
  RandomProgram program = random_program(GetParam());
  ir::Sdfg restored = ir::from_json(ir::to_json(program.sdfg));
  const symbolic::SymbolMap env{{"N", 6}};
  EXPECT_EQ(
      analysis::total_movement_bytes(program.sdfg).evaluate(env),
      analysis::total_movement_bytes(restored).evaluate(env));
  EXPECT_EQ(run_random(program.sdfg, program, env, GetParam()),
            run_random(restored, program, env, GetParam()));
}

TEST_P(Fuzz, SimulationMatchesStaticVolumes) {
  RandomProgram program = random_program(GetParam());
  const symbolic::SymbolMap env{{"N", 5}};
  const ir::State& state = program.sdfg.states()[0];
  std::int64_t static_total = 0;
  for (const ir::Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    const bool tasklet_adjacent =
        state.node(edge.src).kind == ir::NodeKind::Tasklet ||
        state.node(edge.dst).kind == ir::NodeKind::Tasklet;
    if (tasklet_adjacent) {
      static_total +=
          analysis::total_edge_elements(state, edge).evaluate(env);
    }
  }
  sim::AccessTrace trace = sim::simulate(program.sdfg, env);
  EXPECT_EQ(static_total, static_cast<std::int64_t>(trace.events.size()));
}

TEST_P(Fuzz, FusionPreservesSemantics) {
  RandomProgram program = random_program(GetParam());
  ir::Sdfg fused = program.sdfg;
  const int fusions = transforms::fuse_all(fused);
  EXPECT_TRUE(ir::validate(fused).empty());
  const symbolic::SymbolMap env{{"N", 7}};
  EXPECT_EQ(run_random(program.sdfg, program, env, GetParam()),
            run_random(fused, program, env, GetParam()))
      << "after " << fusions << " fusions";
  // Fusion must never increase the total logical movement.
  EXPECT_LE(analysis::total_movement_bytes(fused).evaluate(env),
            analysis::total_movement_bytes(program.sdfg).evaluate(env));
}

TEST_P(Fuzz, CachePredictionMatchesExactSimulator) {
  RandomProgram program = random_program(GetParam());
  sim::AccessTrace trace = sim::simulate(program.sdfg, {{"N", 6}});
  for (std::int64_t lines : {4, 16}) {
    const sim::PipelineResult result =
        sim::MetricPipeline(
            sim::PipelineConfig{.line_size = 64,
                                .counts = false,
                                .miss_threshold_lines = lines,
                                .cache = sim::CacheConfig{64, lines * 64, 0}})
            .run(trace);
    EXPECT_EQ(result.misses.total.misses(), result.cache.total.misses());
  }
}

TEST_P(Fuzz, NaiveAndFastDistancesAgree) {
  RandomProgram program = random_program(GetParam());
  sim::AccessTrace trace = sim::simulate(program.sdfg, {{"N", 4}});
  for (int line : {16, 64}) {
    // The engine and the oracle's Olken pass against the naive scan.
    const std::vector<std::int64_t> naive =
        sim::reference::stack_distances_naive(trace, line).distances;
    EXPECT_EQ(sim::MetricPipeline(sim::PipelineConfig{.line_size = line,
                                                      .counts = false,
                                                      .keep_distances = true})
                  .run(trace)
                  .distances.distances,
              naive);
    EXPECT_EQ(sim::reference::stack_distances(trace, line).distances, naive);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(1, 13));

}  // namespace
}  // namespace dmv
