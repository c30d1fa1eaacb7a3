#!/usr/bin/env bash
# Runs the criterion suite and aggregates the results into one JSON
# artifact (the committed BENCH_PR<N>.json files were written this way).
#
# Usage:
#   scripts/bench.sh                  # writes target/bench.json
#   scripts/bench.sh BENCH_PR11.json  # explicit output name
#   BENCH_FILTER=commit_validation scripts/bench.sh            # one target
#   BENCH_FILTER="commit_validation scan_path" scripts/bench.sh
#   TROD_BENCH_MS=100 scripts/bench.sh                # faster, noisier
#
# Artifact schema ("trod-bench/v1"): a JSON object with
#   schema   - artifact format tag
#   rustc    - toolchain the run used
#   note     - units reminder
#   results  - one object per benchmark, sorted by id:
#     id               - criterion path (group/function/parameter)
#     mean_ns          - mean wall time per iteration
#     stddev_ns/min_ns - spread across samples
#     samples          - measurement count
#     elements_per_sec - optional; present when the bench declares
#                        throughput (e.g. rows served per second)
#     bytes_per_sec    - optional; present when the bench declares
#                        byte throughput (`wal_commit/crc32/<len>`)
#
# From PR 27 the `*/on_disk/*` ids of commit_sharding, cross_commit and
# tracing_overhead, and every `read_scaling/hot_reads/ssi/*` id, measure
# the real group-commit log over `trod_bench::FsyncDir` (an in-memory
# directory whose file fsync sleeps a fixed 500 µs). They are not
# comparable with BENCH_PR2/3/7.json, whose numbers came from a simulated
# fsync slept with the table locks held.
#
# New ids in BENCH_PR10.json:
#   `wal_commit/recovery_checkpoint/<mode>/commits_4096` for <mode> in
#   {full_replay, checkpoint} — recovery of the SAME 4096-commit
#   update-heavy history (512 live keys) without and with an environment
#   checkpoint at its head (the PR 10 bar: checkpoint boot ≥ 5× faster
#   than full replay).
#   `fork_depth/below_floor/<mode>/depth_<D>` for D in {256, 1024, 4096}
#   — `Trod::fork_at` below the GC floor against the same 8192-commit
#   history, with_checkpoints (nearest-checkpoint + delta replay) vs
#   full_replay (full stitched replay of the spill); the PR 10 bar:
#   with_checkpoints at depth 4096 ≥ 5× faster than full_replay.
#
# Carried from PR 9:
#   `wal_commit/throughput/group/sync/roll/threads_<T>` — 8-thread group
#   commit with a 16 KiB segment bound (several rotations per round);
#   the rotation protocol must hide inside the group-commit window, so
#   this should sit within noise of `group/sync`.
#   `wal_commit/recovery_segments/open_durable/segments_<N>` for N in
#   {1, 4, 16} — recovery of the SAME 1024-commit history split across N
#   segment files (the PR 9 bar: per-commit recovery cost at 16 segments
#   within 2× of single-segment).
#
# Carried from PR 8: `server_throughput/point_reads/conns_<N>`
# for N in {16, 64, 128, 512} — wire-level `trod_get` point reads over N
# concurrent keep-alive HTTP/1.1 connections against the
# thread-per-connection JSON-RPC server; elements are completed
# request/response cycles, so `elements_per_sec` is served requests per
# second (the PR 8 bar: ≥ 10k req/s at ≥ 128 connections).
#
# Carried from PR 7: `read_scaling/hot_reads/ssi/threads_<T>` (lock-free
# serializable readers). Artifacts up to BENCH_PR10.json also carry
# `read_scaling/hot_reads/read_lock/*` (the 2PL read-locking baseline)
# and `commit_validation/serializable_commit/full_scan/*`; those arms
# left the suite with the engine switches that produced them. The
# `global_lock` ids of commit_sharding and cross_commit are unchanged
# (now a bench-local mutex around `commit()`).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-target/bench.json}"
# Absolute path: cargo runs bench binaries from the package directory.
jsonl="$PWD/target/bench-results.jsonl"
rm -f "$jsonl"
mkdir -p target

if [[ -n "${BENCH_FILTER:-}" ]]; then
  # BENCH_FILTER may name several bench targets, space-separated.
  bench_flags=()
  for target in $BENCH_FILTER; do
    bench_flags+=(--bench "$target")
  done
  TROD_BENCH_JSON="$jsonl" cargo bench -p trod-bench "${bench_flags[@]}"
else
  TROD_BENCH_JSON="$jsonl" cargo bench -p trod-bench
fi

TROD_RUSTC_VERSION="$(rustc --version)" \
  cargo run --release -p trod-bench --bin report -- bench-json "$jsonl" "$out"
