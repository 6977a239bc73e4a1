#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the program's last stdout line is the JSON
# result.  Fails (non-zero, no result) when the tree does not build, e.g.
# when only BENCHMARK.json and perfbench/ are present.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
rev=unknown
if [ -e .git ]; then rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown); fi
exec ./_build/default/perfbench/main.exe --nproc "$(nproc)" --git-rev "$rev" "$@"
