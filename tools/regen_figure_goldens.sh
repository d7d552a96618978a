#!/usr/bin/env bash
# Rewrites the figure goldens in dmv_renders/ from a built tree: the
# stdout of each figure bench and of examples/hdiff_tuning_session as
# dmv_renders/<program>.stdout, and every file they write under
# dmv_renders/. The FigureGolden.* ctests compare against these files.
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
#   tools/regen_figure_goldens.sh [build-dir]     (default: build)
#
# A change that moves a paper number reruns this script and says why in
# CHANGES.md.
set -euo pipefail

if [ ! -f CMakeLists.txt ] || [ ! -d dmv_renders ]; then
  echo "regen_figure_goldens.sh: run from the repository root" >&2
  exit 2
fi
build=$(cd "${1:-build}" && pwd)
goldens=$(pwd)/dmv_renders
benches="fig1_interface fig2_heatmap_scaling fig3_outer_product
  fig4_access_patterns fig5_locality fig6_bert_global fig7_hdiff_local
  fig8_hdiff_steps cache_model_validation param_scaling tiling_ablation
  hierarchy_breakdown"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Start from an empty directory, so a golden nothing writes any more
# disappears instead of failing its test.
find "$goldens" -maxdepth 1 -type f -delete

run() {  # run <program> <stdout file>
  local dir
  dir="$work/$(basename "$1")"
  mkdir "$dir"
  (cd "$dir" && "$1" > "$2")
  if [ -d "$dir/dmv_renders" ]; then
    cp "$dir"/dmv_renders/* "$goldens"/
  fi
}

for bench in $benches; do
  run "$build/bench/$bench" "$goldens/$bench.stdout"
done
run "$build/examples/hdiff_tuning_session" "$goldens/hdiff_tuning_session.stdout"
echo "regenerated $(find "$goldens" -maxdepth 1 -type f | wc -l) goldens in dmv_renders/"
