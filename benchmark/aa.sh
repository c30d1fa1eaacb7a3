#!/usr/bin/env bash
# A/A check: runs the end-to-end benchmark twice over — two sets of RUNS
# runs (default 10) per workload, same build, one seed per run, workloads
# alternating inside each set — and compares the two sets exactly as the
# gate that guards later changes does: for every end-to-end metric of every
# workload, the spread of a set (interquartile range over median) and the
# shift of the median from the first set to the second, beside the
# metric's bound from BENCHMARK.json. Exits non-zero if a spread (other
# than setup_s's) or a worsening exceeds its bound.
#
#   benchmark/aa.sh            # about 25 minutes
#   RUNS=4 benchmark/aa.sh     # a quicker look; fewer runs, wider spreads
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${RUNS:-10}"
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../BENCHMARK.json")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"

for set in first second; do
  for seed in $(seq 1 "$runs"); do
    for workload in $workloads; do
      echo "aa: $set set, seed $seed, $workload" >&2
      "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$set.$workload.$seed.json"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$out" "$runs" <<'PY'
import json, statistics, sys

contract, out, runs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])

def values(which, workload, metric):
    vals = []
    for seed in range(1, runs + 1):
        result = json.load(open(f"{out}/{which}.{workload}.{seed}.json"))
        if result.get("quick"):
            sys.exit("aa: refusing --quick results: a tenth of the work and one repetition say nothing about noise")
        if not result["correct"] or result["failed"]:
            sys.exit(f"aa: {which} set, {workload}, seed {seed}: incorrect or failed run")
        vals.append(result["metrics"][metric]["value"])
    return vals

def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)

bad = 0
print(f"{'workload':<15} {'metric':<20} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
for w in contract["workloads"]:
    for m in contract["end_to_end"]:
        a, b = values("first", w["name"], m["name"]), values("second", w["name"], m["name"])
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flags = ""
        if worse > m["bound"]:
            flags += "  WORSE THAN BOUND"
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            flags += "  SPREAD OVER BOUND"
        elif m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3:
            flags += "  (spread over a third of the bound)"
        bad += "BOUND" in flags
        print(f"{w['name']:<15} {m['name']:<20} {ma:>12.4g} {mb:>12.4g} {worse:>+9.1%} {sa:>9.1%} {sb:>9.1%} {m['bound']:>6.0%}{flags}")
sys.exit(1 if bad else 0)
PY
