#include <gtest/gtest.h>

#include "dmv/viz/animation.hpp"
#include "dmv/viz/query.hpp"
#include "dmv/viz/render.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::viz {
namespace {

TEST(Search, FindsByLabelCaseInsensitive) {
  ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Baseline);
  auto results = search(sdfg, "SOFTMAX");
  EXPECT_TRUE(results.empty());
  results = search(sdfg, "RowMax");
  ASSERT_FALSE(results.empty());
  for (const SearchResult& result : results) {
    EXPECT_NE(result.label.find("rowmax"), std::string::npos);
  }
}

TEST(Search, FindsContainersAndParams) {
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  // Container name matches access nodes.
  auto by_data = search(sdfg, "in_field");
  bool found_access = false;
  for (const SearchResult& result : by_data) {
    if (result.kind == ir::NodeKind::Access) found_access = true;
  }
  EXPECT_TRUE(found_access);
  // Tasklet code matches.
  EXPECT_FALSE(search(sdfg, "lap_c").empty());
  // Empty query returns nothing.
  EXPECT_TRUE(search(sdfg, "").empty());
  EXPECT_TRUE(search(sdfg, "nonexistent-zzz").empty());
}

TEST(DetailsPanel, AccessNodeShowsLayoutFacts) {
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Padded);
  const ir::State& state = sdfg.states()[0];
  ir::NodeId access = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::Access && node.data == "in_field") {
      access = node.id;
    }
  }
  ASSERT_NE(access, ir::kNoNode);
  std::string text = details_panel(sdfg, 0, access);
  EXPECT_NE(text.find("shape"), std::string::npos);
  EXPECT_NE(text.find("strides"), std::string::npos);
  EXPECT_NE(text.find("element size: 8"), std::string::npos);
  // The padded stride is visible — the §V-D "opaque" info, on demand.
  EXPECT_NE(text.find("ceil_div"), std::string::npos);
}

TEST(DetailsPanel, TaskletShowsOpCounts) {
  ir::Sdfg sdfg = workloads::matmul();
  const ir::State& state = sdfg.states()[0];
  ir::NodeId tasklet = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::Tasklet) tasklet = node.id;
  }
  std::string text = details_panel(sdfg, 0, tasklet);
  EXPECT_NE(text.find("c = a * b"), std::string::npos);
  EXPECT_NE(text.find("1 mul"), std::string::npos);
}

TEST(DetailsPanel, MapShowsBoundsAndIterations) {
  ir::Sdfg sdfg = workloads::matmul();
  const ir::State& state = sdfg.states()[0];
  ir::NodeId entry = ir::kNoNode;
  for (const ir::Node& node : state.nodes()) {
    if (node.kind == ir::NodeKind::MapEntry) entry = node.id;
  }
  std::string text = details_panel(sdfg, 0, entry);
  EXPECT_NE(text.find("i in [0:M - 1]"), std::string::npos);
  EXPECT_NE(text.find("iterations: K*M*N"), std::string::npos);
  // The exit shows its entry's details.
  EXPECT_EQ(details_panel(sdfg, 0, state.node(entry).paired), text);
}

TEST(Filtering, HiddenKindsDisappearFromSvg) {
  ir::Sdfg sdfg = workloads::outer_product();
  GraphRenderOptions plain;
  GraphRenderOptions filtered;
  filtered.hidden_kinds = {ir::NodeKind::Access};
  std::string with = render_state_svg(sdfg.states()[0], plain);
  std::string without = render_state_svg(sdfg.states()[0], filtered);
  EXPECT_NE(with.find("<ellipse"), std::string::npos);
  EXPECT_EQ(without.find("<ellipse"), std::string::npos);
  EXPECT_LT(without.size(), with.size());
}

TEST(Animation, PerExecutionFrames) {
  ir::Sdfg sdfg = workloads::outer_product();
  sim::AccessTrace trace =
      sim::simulate(sdfg, workloads::outer_product_fig3());
  std::vector<AnimationFrame> frames = animation_frames(trace);
  ASSERT_EQ(frames.size(), 12u);  // One per (i, j).
  // Frame 0 = iteration (0,0): A[0], B[0], C[0,0].
  const int a = trace.container_id("A");
  const int c = trace.container_id("C");
  EXPECT_TRUE(frames[0].highlighted.at(a).contains(0));
  EXPECT_TRUE(frames[0].highlighted.at(c).contains(0));
  // Last frame = (2,3): C flat 11.
  EXPECT_TRUE(frames.back().highlighted.at(c).contains(11));
}

TEST(Animation, MaxFramesAndTimestepGranularity) {
  ir::Sdfg sdfg = workloads::outer_product();
  sim::AccessTrace trace =
      sim::simulate(sdfg, workloads::outer_product_fig3());
  AnimationOptions options;
  options.granularity = FrameGranularity::PerTimestep;
  options.max_frames = 5;
  std::vector<AnimationFrame> frames = animation_frames(trace, options);
  ASSERT_EQ(frames.size(), 5u);
  for (const AnimationFrame& frame : frames) {
    std::size_t total = 0;
    for (const auto& [container, elements] : frame.highlighted) {
      total += elements.size();
    }
    EXPECT_EQ(total, 1u);  // One event per frame.
  }
}

TEST(Animation, FirstFrameOpensForAnyKey) {
  // Keys are execution ids or event indexes; a hand-built trace may
  // start at any id, -1 included, and still opens its first frame.
  sim::AccessTrace trace;
  layout::ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {4};
  layout.strides = {1};
  trace.containers = {"A"};
  trace.layouts = {layout};
  for (const std::int64_t execution : {-1, -1, 0}) {
    sim::AccessEvent event;
    event.flat = static_cast<std::int64_t>(trace.events.size());
    event.execution = execution;
    trace.events.push_back(event);
  }
  const std::vector<AnimationFrame> frames = animation_frames(trace);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].index, -1);
  EXPECT_EQ(frames[0].highlighted.at(0), (std::set<std::int64_t>{0, 1}));
  EXPECT_EQ(frames[1].index, 0);
  EXPECT_EQ(frames[1].highlighted.at(0), (std::set<std::int64_t>{2}));
}

TEST(Animation, SmilSvgIsWellFormed) {
  ir::Sdfg sdfg = workloads::outer_product();
  sim::AccessTrace trace =
      sim::simulate(sdfg, workloads::outer_product_fig3());
  std::vector<AnimationFrame> frames = animation_frames(trace);
  const int a = trace.container_id("A");
  std::string svg = render_animated_tiles_svg(trace, a, frames);
  EXPECT_NE(svg.find("<animate"), std::string::npos);
  EXPECT_NE(svg.find("repeatCount=\"indefinite\""), std::string::npos);
  EXPECT_NE(svg.find("calcMode=\"discrete\""), std::string::npos);
  // No placeholder coordinates left behind.
  EXPECT_EQ(svg.find("REPLACE_"), std::string::npos);
  // Every A element (3) gets an overlay track (each is accessed).
  std::size_t tracks = 0, pos = 0;
  while ((pos = svg.find("data-flat=", pos)) != std::string::npos) {
    ++tracks;
    pos += 10;
  }
  EXPECT_EQ(tracks, 3u);
}

TEST(Animation, ArgumentChecks) {
  ir::Sdfg sdfg = workloads::outer_product();
  sim::AccessTrace trace =
      sim::simulate(sdfg, workloads::outer_product_fig3());
  std::vector<AnimationFrame> frames = animation_frames(trace);
  EXPECT_THROW(render_animated_tiles_svg(trace, 99, frames),
               std::out_of_range);
  EXPECT_THROW(render_animated_tiles_svg(trace, 0, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmv::viz
