#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — per workload × end-to-end metric, how
# much worse B is than A and whether that is within the metric's bound.
# Exits non-zero when any bound is exceeded. Paths are relative to the repo
# root. See README.md.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: compare.sh A.json B.json" >&2; exit 2; }
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$1" "$2"
