#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments:
#   bash bench/perf/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
# Runs from the repository root; fails without a result elsewhere.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "perf: no dune-project here; run from a full checkout of the repository" >&2
  exit 2
fi
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
