// The §VI-B case study as an interactive session: tune horizontal
// diffusion using the local view, applying each transform the overlays
// suggest — driven through dmv::session::Session, so every stage's
// metrics come out of the memoization cache machinery an interactive
// client would use.
//
// Reproduces the supplementary videos' storyline:
//   1. parameterize at I=J=8, K=5 (1/32 of production size),
//   2. see the 13-point pattern spread out in memory -> reshape,
//   3. see the innermost loop stride through a non-contiguous dim ->
//      reorder the loops,
//   4. see rows wrapping cache lines -> pad the strides,
// then drags the K "slider" across a value range twice — first cold,
// then warm — and prints the session's hit/miss accounting.
//
// Run: ./build/examples/hdiff_tuning_session

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "dmv/session/session.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/transforms/transforms.hpp"
#include "dmv/viz/animation.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using namespace dmv;

void local_view_report(const char* stage, session::Session& session) {
  std::shared_ptr<const sim::PipelineResult> metrics = session.metrics();
  const int in_field = metrics->container_index("in_field");
  std::printf(
      "%-28s misses=%5lld (in_field %5lld)  est. physical bytes=%7lld\n",
      stage, static_cast<long long>(metrics->misses.total.misses()),
      static_cast<long long>(
          metrics->misses.per_container[in_field].misses()),
      static_cast<long long>(metrics->movement.total_bytes));
}

// Writes one "animation frame": the elements the given execution touches.
// Frames need the raw event stream, so they are the one place the example
// still simulates a materialized trace outside the session.
void write_frame(const sim::AccessTrace& trace, std::int64_t execution,
                 const std::string& path) {
  const int in_field = trace.container_id("in_field");
  viz::TileRenderOptions options;
  for (const sim::AccessEvent& event : trace.events) {
    if (event.execution == execution && event.container == in_field) {
      options.highlighted.insert(event.flat);
    }
  }
  options.tile_size = 14;
  std::ofstream(path) << render_tiles_svg(trace.layouts[in_field], options);
}

void print_stats(const char* label, const session::SessionStats& stats) {
  std::printf(
      "%-24s hits=%3lld misses=%3lld evictions=%lld cached=%zu entries "
      "(%zu KiB)\n",
      label, static_cast<long long>(stats.hits),
      static_cast<long long>(stats.misses),
      static_cast<long long>(stats.evictions), stats.cache_entries,
      stats.cache_bytes / 1024);
  // How each interaction step was actually satisfied by the delta
  // recomputation engine (docs/incremental.md).
  std::printf(
      "%-24s steps: full-hit=%lld symbolic-delta=%lld chunk-delta=%lld "
      "cold=%lld\n",
      "", static_cast<long long>(stats.steps_full_hit),
      static_cast<long long>(stats.steps_symbolic),
      static_cast<long long>(stats.steps_chunk_delta),
      static_cast<long long>(stats.steps_cold));
}

}  // namespace

int main() {
  std::filesystem::create_directories("dmv_renders");
  const symbolic::SymbolMap params = workloads::hdiff_local();

  // One interactive client: metrics subscription = miss classification
  // at an 8-line threshold plus the physical-movement estimate.
  session::SessionConfig config;
  config.pipeline.miss_threshold_lines = 8;
  config.pipeline.movement = true;
  session::Session session(workloads::hdiff(workloads::HdiffVariant::Baseline),
                           config);
  session.set_binding(params);

  std::printf(
      "Parameterized local view: I=J=8, K=5; 64 B lines, 8 B values, "
      "capacity threshold 8 lines.\n\n");
  local_view_report("baseline [I+4,J+4,K]:", session);
  {
    sim::AccessTrace trace = sim::simulate(session.program(), params);
    write_frame(trace, 0, "dmv_renders/session_frame_baseline.svg");
    // Diagnosis 1: the neighborhood spreads across distant rows.
    const int in_field = trace.container_id("in_field");
    std::set<std::int64_t> lines;
    const auto& layout = trace.layouts[in_field];
    for (const sim::AccessEvent& event : trace.events) {
      if (event.execution != 0 || event.container != in_field) continue;
      lines.insert(layout.byte_address(layout.unflatten(event.flat)) / 64);
    }
    std::printf(
        "  diagnosis: one iteration touches %zu distinct cache lines -> "
        "poor spatial locality, reshape in_field\n",
        lines.size());
  }

  // Step 1: reshape in_field [I+4, J+4, K] -> [K, I+4, J+4]. Artifacts
  // of the baseline stay cached under its content hash — the session
  // recomputes only because the program version changed.
  session.edit_program([](ir::Sdfg& sdfg) {
    transforms::permute_dimensions(sdfg, "in_field", {2, 0, 1});
  });
  local_view_report("reshaped [K,I+4,J+4]:", session);
  {
    write_frame(sim::simulate(session.program(), params), 0,
                "dmv_renders/session_frame_reshaped.svg");
    std::printf(
        "  diagnosis: innermost loop k now strides the slowest dimension "
        "-> reorder loops\n");
  }

  // Step 2: make k the outermost loop parameter.
  session.edit_program([](ir::Sdfg& sdfg) {
    ir::State& state = sdfg.states().front();
    for (const ir::Node& node : state.nodes()) {
      if (node.kind == ir::NodeKind::MapEntry) {
        transforms::loop_interchange(state, node.id, {2, 0, 1});
        break;
      }
    }
  });
  local_view_report("loops reordered (k,i,j):", session);
  {
    auto layout = layout::ConcreteLayout::from(
        session.program().array("in_field"), params);
    const auto wrapped = layout::rows_with_line_wraparound(layout, 2, 64);
    std::printf(
        "  diagnosis: %zu rows start mid-cache-line (wrap-around "
        "pollution) -> pad the row stride\n",
        wrapped.size());
  }

  // Step 3: pad rows to a multiple of the cache line (8 doubles).
  session.edit_program([](ir::Sdfg& sdfg) {
    transforms::pad_innermost_stride(sdfg, "in_field", 8);
  });
  local_view_report("rows padded to 16:", session);
  {
    auto layout = layout::ConcreteLayout::from(
        session.program().array("in_field"), params);
    std::printf(
        "  result: %zu wrap-around rows remain; allocation grows to %lld "
        "elements for %lld logical\n",
        layout::rows_with_line_wraparound(layout, 2, 64).size(),
        static_cast<long long>(layout.allocated_elements()),
        static_cast<long long>(layout.total_elements()));
    write_frame(sim::simulate(session.program(), params), 0,
                "dmv_renders/session_frame_padded.svg");
  }

  // Slider sweep on the tuned program: drag K from 3 to 10 and back.
  // Each forward step evaluates its own binding; the reverse pass is
  // pure cache hits. Cached results are bit-identical to uncached ones,
  // and every counter printed here is the same at any thread count.
  std::printf("\nDragging the K slider over [3, 10] and back:\n");
  session.reset_stats();
  for (std::int64_t k = 3; k <= 10; ++k) {
    session.set_symbol("K", k);
    (void)session.metrics();
  }
  print_stats("  forward (cold):", session.stats());
  session.reset_stats();
  for (std::int64_t k = 10; k >= 3; --k) {
    session.set_symbol("K", k);
    (void)session.metrics();
  }
  print_stats("  reverse (warm):", session.stats());

  // The same drag on the FIXED-CAPACITY build of the tuned program:
  // arrays allocated at KMAX once, the K slider restricting only the
  // iteration domain. Every forward step past the first is now an
  // append-only chunk delta — the simulator touches just the new k
  // slices and the metric checkpoint resumes in place — while results
  // stay bit-identical to cold evaluation.
  // (I=J=20 here: a k slice must clear the delta planner's per-chunk
  // event floor for slices to map one-to-one onto plan chunks.)
  std::printf(
      "\nSame drag, fixed-capacity build (I=J=20, K slider, KMAX=10):\n");
  {
    session::Session interactive(
        workloads::fixed_capacity(session.program(), {{"K", "KMAX"}}),
        config);
    symbolic::SymbolMap binding{{"I", 20}, {"J", 20}};
    binding["KMAX"] = 10;
    binding["K"] = 3;
    interactive.set_binding(binding);
    (void)interactive.metrics();
    interactive.reset_stats();
    for (std::int64_t k = 4; k <= 10; ++k) {
      interactive.set_symbol("K", k);
      (void)interactive.metrics();
    }
    print_stats("  forward (delta):", interactive.stats());
  }

  // Bonus: a self-playing animation (§V-C playback) of the first 25
  // stencil applications on the final layout — open in a browser.
  {
    sim::AccessTrace trace = sim::simulate(session.program(), params);
    viz::AnimationOptions animation;
    animation.max_frames = 25;
    animation.seconds_per_frame = 0.25;
    std::vector<viz::AnimationFrame> frames =
        viz::animation_frames(trace, animation);
    std::ofstream("dmv_renders/session_playback.svg")
        << viz::render_animated_tiles_svg(
               trace, trace.container_id("in_field"), frames, animation);
  }

  std::printf(
      "\nAnimation frames written to dmv_renders/session_frame_*.svg and "
      "a self-playing SMIL animation to dmv_renders/session_playback.svg."
      "\nThe same tuned program measured at full size: see "
      "bench/table1_hdiff.\n");
  return 0;
}
