#!/usr/bin/env bash
# One parent/change session of the repository benchmark (BENCHMARK.json):
# builds each side's mtgpu-perf once, offline, from a git worktree under
# target/pair/, runs alternating pairs of one workload, the side that goes
# first rotating every pair, and hands the two sides' reports to
# scripts/trajectory.py, which prints the session's two trajectory rows and
# its verdict table. The reports stay in target/pair/WORKLOAD.{parent,change}.jsonl.
#
# Usage: scripts/pair.sh PARENT CHANGE --workload W [--pairs N] [--seed S] [--append]
#
#   PARENT, CHANGE  git revisions; CHANGE may be `.`, the checkout as it
#                   stands, uncommitted edits included
#   --workload W    a workload of BENCHMARK.json
#   --pairs N       pairs to run (default 10)
#   --seed S        every run's --seed (default 42)
#   --append        also append the two rows to bench/trajectory/W.jsonl
#
# Every run lasts BENCHMARK.json's run_seconds. The session stops at the
# first run that exits non-zero or reports `correct: false`, naming the side
# and the pair. The worktrees are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/pair.sh PARENT CHANGE --workload W [--pairs N] [--seed S] [--append]" >&2
    exit 2
}

revs=()
workload="" pairs=10 seed=42 append=""
while (($#)); do
    case "$1" in
    --workload) workload="${2:-}" && shift ;;
    --pairs) pairs="${2:-}" && shift ;;
    --seed) seed="${2:-}" && shift ;;
    --append) append=1 ;;
    -*) usage ;;
    *) revs+=("$1") ;;
    esac
    shift
done
((${#revs[@]} == 2)) || usage
[[ "${revs[0]}" != "." ]] || { echo "PARENT must be a commit, not '.'" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]] || usage
seconds=$(python3 -c '
import json, sys
spec = json.load(open("BENCHMARK.json"))
if sys.argv[1] not in [w["name"] for w in spec["workloads"]]:
    sys.exit(f"unknown workload {sys.argv[1]!r}")
print(spec["run_seconds"])' "$workload")

work=$PWD/target/pair
mkdir -p "$work"
trees=()
cleanup() {
    for tree in "${trees[@]}"; do
        git worktree remove --force "$tree" || true
    done
}
trap cleanup EXIT

# build SIDE REV: the side's binary as $work/mtgpu-perf-SIDE, its
# abbreviated sha (empty for `.`) in sha_SIDE.
build() {
    local side=$1 rev=$2 tree=$PWD sha=""
    if [[ "$rev" != "." ]]; then
        sha=$(git rev-parse --short=7 --verify "$rev^{commit}")
        tree=$work/tree-$side
        # A session that was killed may have left its tree behind.
        git worktree remove --force "$tree" 2> /dev/null || rm -rf "$tree"
        git worktree prune
        git worktree add --quiet --detach "$tree" "$sha"
        trees+=("$tree")
    fi
    echo "building $side ($rev${sha:+ = $sha})" >&2
    cargo build --release --offline --quiet --manifest-path "$tree/crates/perf/Cargo.toml" \
        --target-dir "$work/target"
    cp "$work/target/release/mtgpu-perf" "$work/mtgpu-perf-$side"
    printf -v "sha_$side" '%s' "$sha"
}
build parent "${revs[0]}"
build change "${revs[1]}"

out=$work/$workload
: > "$out.parent.jsonl"
: > "$out.change.jsonl"
for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    ((i % 2)) || order="change parent"
    for side in $order; do
        if ! report=$("$work/mtgpu-perf-$side" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" | tail -n 1); then
            echo "pair $i: the $side run exited non-zero" >&2
            exit 1
        fi
        python3 -c '
import json, sys
report, pair, side = sys.argv[1:]
r = json.loads(report)
ops, sim = (r["metrics"][name]["value"] for name in ("ops_per_s", "sim_ms_per_op"))
failed = r["failed"]
print(f"pair {pair} {side:<6} ops_per_s {ops:.6g}  sim_ms_per_op {sim:.10g}  failed {failed}",
      file=sys.stderr)
sys.exit(0 if r["correct"] is True else 1)' "$report" "$i/$pairs" "$side" ||
            { echo "pair $i: the $side run reported correct: false" >&2; exit 1; }
        echo "$report" >> "$out.$side.jsonl"
    done
done

python3 scripts/trajectory.py "$out.parent.jsonl" "$out.change.jsonl" \
    --parent-sha "$sha_parent" ${sha_change:+--change-sha "$sha_change"} \
    --seed "$seed" --seconds "$seconds" \
    ${append:+--append "bench/trajectory/$workload.jsonl"}
