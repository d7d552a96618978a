#include <sstream>
#include <stdexcept>

#include "dmv/viz/animation.hpp"
#include "dmv/viz/render.hpp"

namespace dmv::viz {

std::vector<AnimationFrame> animation_frames(
    const sim::AccessTrace& trace, const AnimationOptions& options) {
  std::vector<AnimationFrame> frames;
  std::int64_t current_key = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const sim::AccessEvent event = trace.events[i];
    const std::int64_t key =
        options.granularity == FrameGranularity::PerExecution
            ? event.execution
            : static_cast<std::int64_t>(i);
    if (frames.empty() || key != current_key) {
      if (options.max_frames > 0 &&
          static_cast<std::int64_t>(frames.size()) >= options.max_frames) {
        break;
      }
      current_key = key;
      AnimationFrame frame;
      frame.index = key;
      frames.push_back(std::move(frame));
    }
    frames.back().highlighted[event.container].insert(event.flat);
  }
  return frames;
}

std::string render_animated_tiles_svg(
    const sim::AccessTrace& trace, int container,
    const std::vector<AnimationFrame>& frames,
    const AnimationOptions& options) {
  if (container < 0 ||
      container >= static_cast<int>(trace.layouts.size())) {
    throw std::out_of_range("render_animated_tiles_svg: bad container");
  }
  if (frames.empty()) {
    throw std::invalid_argument("render_animated_tiles_svg: no frames");
  }
  const layout::ConcreteLayout& layout = trace.layouts[container];
  const double total_seconds =
      options.seconds_per_frame * static_cast<double>(frames.size());

  // Base grid: the static tile rendering.
  TileRenderOptions base;
  base.tile_size = options.tile_size;
  std::string svg = render_tiles_svg(layout, base);

  // Overlay: per element, a discrete keyframe track turning the fill
  // green during the frames that touch it. Injected before </svg>.
  std::ostringstream overlay;
  for (std::int64_t flat = 0; flat < layout.total_elements(); ++flat) {
    // Collect the frame indices highlighting this element.
    std::vector<std::size_t> active;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      auto it = frames[f].highlighted.find(container);
      if (it != frames[f].highlighted.end() && it->second.contains(flat)) {
        active.push_back(f);
      }
    }
    if (active.empty()) continue;

    // Build the keyTimes/values pair: opaque green exactly during the
    // active slots (calcMode=discrete holds each value until the next
    // key time).
    std::ostringstream key_times, values;
    key_times << "0";
    values << "0";
    for (std::size_t f : active) {
      const double start =
          static_cast<double>(f) / static_cast<double>(frames.size());
      const double end =
          static_cast<double>(f + 1) / static_cast<double>(frames.size());
      key_times << ';' << start << ';' << end;
      values << ";1;0";
    }

    // Positioning: reuse the static renderer's geometry by overlaying an
    // independent rect at the same location. We recompute the location
    // exactly like render_tiles_svg does via a 1-element highlight
    // render and coordinate extraction — instead, simpler: draw a
    // full-cover <rect> that uses the same layout function through a
    // dedicated helper below.
    overlay << "<rect data-flat=\"" << flat << "\" width=\""
            << options.tile_size - 2 << "\" height=\""
            << options.tile_size - 2
            << "\" fill=\"#39b54a\" opacity=\"0\" x=\"REPLACE_X_" << flat
            << "\" y=\"REPLACE_Y_" << flat << "\">"
            << "<animate attributeName=\"opacity\" calcMode=\"discrete\" "
               "dur=\""
            << total_seconds << "s\" repeatCount=\"indefinite\" keyTimes=\""
            << key_times.str() << "\" values=\"" << values.str()
            << "\"/></rect>\n";
  }
  std::string overlay_text = overlay.str();

  // Resolve the REPLACE_ coordinates from the base rendering: the n-th
  // <rect ...> in the base grid corresponds to flat index n.
  std::size_t cursor = 0;
  for (std::int64_t flat = 0; flat < layout.total_elements(); ++flat) {
    cursor = svg.find("<rect", cursor);
    if (cursor == std::string::npos) break;
    const std::size_t x_begin = svg.find("x=\"", cursor) + 3;
    const std::size_t x_end = svg.find('"', x_begin);
    const std::size_t y_begin = svg.find("y=\"", x_end) + 3;
    const std::size_t y_end = svg.find('"', y_begin);
    const std::string x = svg.substr(x_begin, x_end - x_begin);
    const std::string y = svg.substr(y_begin, y_end - y_begin);
    auto replace_all = [&](const std::string& token,
                           const std::string& with) {
      for (std::size_t at = overlay_text.find(token);
           at != std::string::npos; at = overlay_text.find(token)) {
        overlay_text.replace(at, token.size(), with);
      }
    };
    replace_all("\"REPLACE_X_" + std::to_string(flat) + "\"",
                '"' + x + '"');
    replace_all("\"REPLACE_Y_" + std::to_string(flat) + "\"",
                '"' + y + '"');
    cursor += 5;
  }

  const std::size_t closing = svg.rfind("</svg>");
  svg.insert(closing, overlay_text);
  return svg;
}

}  // namespace dmv::viz
