#!/usr/bin/env bash
# Builds the benchmark package (benchmark/CMakeLists.txt) into
# benchmark/build when needed, then runs musa_bench with the given
# arguments from the repository root. Build output goes to stderr, so
# standard output carries only the benchmark's own lines.
#
#   bash benchmark/run.sh --workload paper_sweep --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1                  # the whole suite
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2
cd "$here/.."
exec "$build/musa_bench" "$@"
