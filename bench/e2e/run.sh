#!/usr/bin/env bash
# Builds bench_e2e in Release and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh                  all four workloads, each in its own process
#   bench/e2e/run.sh --trace          the same, traced: per-layer breakdown
#   bench/e2e/run.sh --smoke          about a second per workload, checks on
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#
# The build goes to build-e2e/ at the repository root; result files (each
# with the host record) and span traces go to build-e2e/out/. Build output
# goes to stderr, so with --workload the last line of stdout is the
# workload's JSON result. Exits non-zero when the build fails or any
# workload fails a correctness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no Infopipes source tree at $root/src" >&2
  exit 2
fi

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j 3 >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
exe=("$build/bench_e2e" --out "$build/out" --commit "$commit")

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "${exe[@]}" "$@"
  fi
done

status=0
for w in coroutine_chain shard_cut tcp_video session_churn; do
  "${exe[@]}" --workload "$w" "$@" || status=1
done
exit "$status"
