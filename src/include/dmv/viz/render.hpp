#pragma once

// Headless renderers: the substitute for the paper's interactive webview.
//
// Every interactive element of the tool becomes a pure function from
// (program, analysis results, selection) to a rendered artifact:
//
//   * render_state_svg     — the global graph view with in-situ heatmap
//                            overlays on edges and nodes (Fig 1, Fig 6).
//   * render_tiles_svg     — parameterized data containers as per-element
//                            tile grids, with the alternating horizontal/
//                            vertical nesting for >2-D data (§V-B,
//                            Fig 3/4/5), heat coloring, highlights
//                            (slider/cache-line selections), and access-
//                            count labels.
//   * render_histogram_svg — the details-panel reuse-distance histogram
//                            (Fig 5b top).
//   * ascii renderers      — terminal-friendly equivalents used by the
//                            benchmark harnesses and examples.
//   * outline/minimap      — the navigation aids of §IV-A.
//
// Animation playback (the §V-C access-pattern animation) is exposed as
// frame generation: one tile render per timestep group.

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/layout/layout.hpp"
#include "dmv/viz/graph_layout.hpp"
#include "dmv/viz/heatmap.hpp"

namespace dmv::viz {

// ---------------------------------------------------------------------
// Graph view.

struct GraphRenderOptions {
  /// Normalized heat per edge index (absent = neutral gray).
  std::map<std::size_t, double> edge_heat;
  /// Normalized heat per node id (absent = default fill).
  std::map<ir::NodeId, double> node_heat;
  /// Extra caption per edge index (e.g. the volume expression).
  std::map<std::size_t, std::string> edge_label;
  ColorScheme scheme = ColorScheme::GreenYellowRed;
  LayoutOptions layout;
  /// Scale factor < 1 renders the minimap variant (labels dropped).
  double scale = 1.0;
  /// §IV-A element filtering: node kinds hidden from the rendering
  /// (their edges disappear with them).
  std::set<ir::NodeKind> hidden_kinds;
};

std::string render_state_svg(const ir::State& state,
                             const GraphRenderOptions& options = {});

/// Cache-aware re-render: emits the SVG over a PRECOMPUTED layout,
/// skipping the Sugiyama pipeline. The layout depends only on graph
/// structure — not on bindings or heat — so an interactive session
/// computes it once per program version and re-renders only the heat
/// overlay as parameters move. `layout` must come from layout_state on
/// the same state with the same LayoutOptions; options.layout is
/// ignored here.
std::string render_state_svg(const ir::State& state,
                             const StateLayout& layout,
                             const GraphRenderOptions& options = {});

/// Whole-program view: every state rendered in sequence inside labeled
/// frames, connected by control-flow arrows (the paper's canvas shows
/// the full SDFG, not one state). Per-state options are looked up by
/// state index; missing entries render plain.
std::string render_sdfg_svg(
    const ir::Sdfg& sdfg,
    const std::map<int, GraphRenderOptions>& per_state = {});

// ---------------------------------------------------------------------
// Parameterized container tile view.

struct TileRenderOptions {
  /// Normalized heat per logical element (size = total_elements).
  const std::vector<double>* heat = nullptr;
  /// Numeric label per element (e.g. access counts; rendered inside the
  /// tile when it fits, always in the tooltip <title>).
  const std::vector<std::int64_t>* counts = nullptr;
  /// Elements highlighted green (slider selection / same-cache-line).
  std::set<std::int64_t> highlighted;
  /// Elements outlined as the user's selection.
  std::set<std::int64_t> selected;
  double tile_size = 20;
  ColorScheme scheme = ColorScheme::GreenYellowRed;
  bool show_name = true;
};

std::string render_tiles_svg(const layout::ConcreteLayout& layout,
                             const TileRenderOptions& options = {});

// ---------------------------------------------------------------------
// Histogram (details panel).

struct HistogramRenderOptions {
  int max_buckets = 24;
  double width = 360;
  double height = 160;
  std::string title;
  /// Count of cold (infinite-distance) accesses listed separately, as in
  /// Fig 5b ("one cold miss").
  std::int64_t cold_misses = 0;
};

std::string render_histogram_svg(const std::vector<std::int64_t>& values,
                                 const HistogramRenderOptions& options = {});

// ---------------------------------------------------------------------
// ASCII renderers (terminal output for benches and examples).

/// 2-D slice of a container's per-element heat as a character grid.
/// Higher heat -> denser glyph. For rank > 2 the leading dimensions are
/// fixed via `prefix`.
std::string ascii_heatmap(const layout::ConcreteLayout& layout,
                          const std::vector<double>& heat,
                          const std::vector<std::int64_t>& prefix = {});

/// Aligned monospace table used by every benchmark harness.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  std::string str() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// ---------------------------------------------------------------------
// Navigation aids.

/// Hierarchical outline of the whole program (states, maps, tasklets,
/// access nodes), indented text — the §IV-A outline overview.
std::string outline(const ir::Sdfg& sdfg);

/// Minimap: the state graph at small scale with a viewport rectangle.
std::string render_minimap_svg(const ir::State& state, double viewport_x,
                               double viewport_y, double viewport_w,
                               double viewport_h);

}  // namespace dmv::viz
