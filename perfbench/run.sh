#!/usr/bin/env bash
# Served-path benchmark: builds topk_cli and the benchmark program from
# source, then runs one workload against real serve-s1 + serve-s2
# daemons. Run from the repository root:
#
#   bash perfbench/run.sh --workload deep-solo --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --workload deep-solo --seed 1 --seconds 40 --trace 0 --repeat 5
#
# The last stdout line is the JSON result; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/topk_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --topk-cli ./_build/default/bin/topk_cli.exe "$@"
