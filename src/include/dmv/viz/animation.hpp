#pragma once

// Access-pattern playback (paper §V-C: "The resulting access pattern can
// be played back using a variable speed animation, which highlights the
// exact individual elements or memory locations in each data container
// accessed at that specific time-step").
//
// Two substitutes for the interactive animation:
//  * animation_frames — the frame data itself (per tasklet execution or
//    per access event), for programmatic consumption or frame-by-frame
//    SVG dumps;
//  * render_animated_tiles_svg — one self-playing SVG per container,
//    using SMIL <animate> with discrete keyframes: open it in a browser
//    and the access pattern plays back, looping, at the configured speed.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::viz {

enum class FrameGranularity {
  PerExecution,  ///< One frame per tasklet execution (the paper's step).
  PerTimestep,   ///< One frame per access event (its time is its index).
};

struct AnimationFrame {
  std::int64_t index = 0;
  /// container id -> elements highlighted in this frame.
  std::map<int, std::set<std::int64_t>> highlighted;
};

struct AnimationOptions {
  FrameGranularity granularity = FrameGranularity::PerExecution;
  /// Stop after this many frames (0 = all). Long traces should bound
  /// this; the local view's parameterizations are small by design.
  std::int64_t max_frames = 0;
  /// Playback speed for the SMIL render ("variable speed animation").
  double seconds_per_frame = 0.4;
  double tile_size = 20;
};

/// Extracts frame data from a trace.
std::vector<AnimationFrame> animation_frames(
    const sim::AccessTrace& trace, const AnimationOptions& options = {});

/// Renders one container as a self-playing looping SVG: each frame's
/// accessed elements flash green during their time slot.
std::string render_animated_tiles_svg(
    const sim::AccessTrace& trace, int container,
    const std::vector<AnimationFrame>& frames,
    const AnimationOptions& options = {});

}  // namespace dmv::viz
