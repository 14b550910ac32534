#!/usr/bin/env bash
# A/A check: two interleaved sets (A B A B ...) of N full runs of one build.
#
#   benchmark/aa.sh N [--seconds S]
#
# A full run is every workload untraced, then every workload traced. Run i of
# both sets uses seed i, so the two sets do exactly the same work. Prints,
# per workload and end-to-end metric, both sets' medians and quartiles and
# the relative difference of the medians beside the metric's bound from
# BENCHMARK.json. Exits non-zero if a difference exceeds its bound, if a
# simulated time or an exact count differs at all between the sets or between
# two runs that should agree, or if any op failed.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
n=${1:?usage: aa.sh N [--seconds S]}
shift
out=$here/out/aa
rm -rf "$out"
mkdir -p "$out"
for ((i = 1; i <= n; i++)); do
    for set in A B; do
        for trace in 0 1; do
            for workload in tpch22_serial scan_fused_t2 budget_ladder wimpi24_serve; do
                echo "run $i of $n, set $set, trace $trace: $workload" >&2
                "$here/run.sh" --workload "$workload" --seed "$i" --trace "$trace" "$@" |
                    tail -n 1 >"$out/$set.$trace.$workload.$i.json"
            done
        done
    done
done
python3 - "$here/../BENCHMARK.json" "$out" "$n" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, n = sys.argv[2], int(sys.argv[3])
bad = []

def load(set_, trace, workload, i):
    r = json.load(open(f"{out}/{set_}.{trace}.{workload}.{i}.json"))
    if not r["correct"] or r["failed"]:
        bad.append(f"{workload} set {set_} run {i} trace {trace}: {r['failed']} ops failed")
    return {k: v["value"] for k, v in r["metrics"].items()}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

for w in [w["name"] for w in spec["workloads"]]:
    print(f"== {w}")
    runs = {s: [load(s, 0, w, i) for i in range(1, n + 1)] for s in "AB"}
    print(f"{'metric':<18}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}{'B vs A':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = ([r[name] for r in runs[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        cells = [f"{m:.6g} [{q[0]:.6g}, {q[1]:.6g}]" for m, q in ((ma, quartiles(a)), (mb, quartiles(b)))]
        flag = ""
        if worse > bound:
            flag = "  EXCEEDS"
            bad.append(f"{w} {name}: B is {worse:+.1%} worse than A, bound {bound:.1%}")
        print(f"{name:<18}{cells[0]:>36}{cells[1]:>36}{worse:>+9.1%}{bound:>7.1%}{flag}")
        if metric["unit"] == "sim_s":
            # One seed must give one value in both sets; seeds agree to rounding.
            if a != b:
                bad.append(f"{w} {name}: differs between the sets: {a} vs {b}")
            if max(a + b) - min(a + b) > 1e-9 * ma:
                bad.append(f"{w} {name}: differs between seeds: {a + b}")
    traced = {s: [load(s, 1, w, i) for i in range(1, n + 1)] for s in "AB"}
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "sim_s")]
    differing = [
        f"{name} (seed {i + 1}: {ra[name]} vs {rb[name]})"
        for name in exact
        for i, (ra, rb) in enumerate(zip(traced["A"], traced["B"]))
        if ra[name] != rb[name]
    ]
    print(f"exact counts and simulated times of the traced runs: {len(exact)} compared, {len(differing)} differ")
    bad += [f"{w} {d}" for d in differing]

for line in bad:
    print("FAIL", line)
sys.exit(1 if bad else 0)
PY
