#!/usr/bin/env bash
# A/B the end-to-end benchmark: a parent revision against the working tree.
#
# Usage: ab_e2e.sh <parent-rev> <workload> <pairs> [seed]
#
# Exports <parent-rev>'s tree (git archive) to .bench_build/parent-<sha>/,
# builds e2ebench there and in the working tree (release, offline, each
# with its own target directory under .bench_build/), then runs <pairs>
# pairs of `--trace 0` runs of <workload> with seed [seed] (default 1).
# Odd pairs run the parent first and even pairs the change first, so a
# slow spell of the host falls on both sides. Each run starts from its
# own checkout's root, as BENCHMARK.json runs it.
#
# Prints, for every end-to-end metric BENCHMARK.json lists, both sides'
# median and quartiles, the change's win count (pairs where it was
# strictly better in the metric's direction) and whether the gap between
# the medians exceeds the parent's interquartile range; then each side's
# failed-run count. Raw JSON lines go to .bench_build/ab-<workload>-<seed>.jsonl.
# Needs git, cargo and python3.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seed="${4:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

sha="$(git rev-parse --short=12 "$rev^{commit}")"
build="$root/.bench_build"
parent="$build/parent-$sha"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi

echo "== building parent $sha and the working tree"
CARGO_TARGET_DIR="$build/target-parent" \
    cargo build --release --offline --quiet --manifest-path "$parent/e2ebench/Cargo.toml"
CARGO_TARGET_DIR="$build/target-work" \
    cargo build --release --offline --quiet --manifest-path "$root/e2ebench/Cargo.toml"

out="$build/ab-$workload-$seed.jsonl"
: > "$out"
run() { # <side> <pair>
    local side="$1" pair="$2" dir bin line
    if [ "$side" = parent ]; then
        dir="$parent" bin="$build/target-parent/release/lesm-e2ebench"
    else
        dir="$root" bin="$build/target-work/release/lesm-e2ebench"
    fi
    line="$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)"
    printf '{"side": "%s", "pair": %d, "run": %s}\n' "$side" "$pair" "$line" >> "$out"
    echo "   pair $pair $side done"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

python3 - "$out" "$root/BENCHMARK.json" "$workload" "$seed" "$sha" <<'EOF'
import json, statistics, sys

path, bench, workload, seed, sha = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
rows = [json.loads(line) for line in open(path)]
side = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for r in rows:
    run = r["run"]
    if not run.get("correct") or run.get("failed"):
        failed[r["side"]] += 1
    side[r["side"]][r["pair"]] = run["metrics"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

pairs = sorted(set(side["parent"]) & set(side["change"]))
print(f"{workload}, seed {seed}: parent {sha} vs working tree, {len(pairs)} pairs")
print(f"{'metric':<13} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'wins':>6}  gap > parent IQR")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [side["parent"][i][name]["value"] for i in pairs]
    c = [side["change"][i][name]["value"] for i in pairs]
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    gap = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{name:<13} {fmt(pq):>30} {fmt(cq):>30} {wins:>3}/{len(pairs):<2}  {'yes' if gap else 'no'}")
print(f"runs not correct or with failures: parent {failed['parent']}, change {failed['change']}")
EOF
