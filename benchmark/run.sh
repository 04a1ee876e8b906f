#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--smoke] [--out FILE]
#
# Paths (--out, --scratch) are relative to the repo root. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The build is always --release: a debug binary refuses to measure.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ccsim-benchmark"

# Keep freed heap in the process (glibc: no mmap'd chunks, no trimming). On
# this kind of VM memory handed back to the kernel returns to the hypervisor
# within seconds and costs ~5 us per page to get back, which made set-up
# time and the first reps bimodal. Parent and change run with the same
# setting; `peak_heap_mb` counts requested bytes and is unaffected.
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=68719476736

CCSIM_BENCH_RUSTC="$(rustc --version)"
CCSIM_BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export CCSIM_BENCH_RUSTC CCSIM_BENCH_GIT_REV
exec "$bin" "$@"
