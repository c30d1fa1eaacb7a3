#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed 42] [--seconds 10] [--trace 0|1] [--traced] [--quick]
#
# Without --workload every workload runs in turn; without --trace both the
# end-to-end and the per-layer metrics are measured. The last line of
# standard output per workload is the result: one JSON object with the keys
# correct, attempted, failed and metrics. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Recorded with every result.
TROD_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
TROD_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Everything a run writes (WAL directories, spans) stays under benchmark/out.
TROD_BENCH_OUT="$here/out"
export TROD_BENCH_RUSTC TROD_BENCH_COMMIT TROD_BENCH_OUT

# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for us alike; unset, cargo puts the package's build under
# benchmark/target.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/trod-benchmark" "$@"
