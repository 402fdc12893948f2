#!/usr/bin/env bash
# Runs the gated benchmarks and writes their JSON reports into results/.
# Memory: the transfer benchmark (materialize and swap-out on the C2050's
# two copy engines against the same device with one) plus the
# oversubscription sweep of the intra-application eviction order; writes
# results/BENCH_memory.json. Fails (nonzero exit) when the 2-engine
# materialize misses the 1.4x gate, or when the oversubscription rotation's
# h2d/d2h MiB or eviction count differ from what the order measured when it
# was chosen (they are counters of a sequential run: exact). Extra args
# pass through to the bench binary (e.g. --quick).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
# Absolute path: cargo runs the bench binary from the package dir, not
# the workspace root.
cargo bench -q -p mtgpu-bench --bench memory -- --gate 1.4 \
    --out "$PWD/results/BENCH_memory.json" "$@"
# The one-lock dispatcher's churn throughput (8/64/256 clients; reported,
# not gated) plus the ranked-lock overhead gate: in release
# builds RankedMutex must cost no more than 1.02x a raw std::sync::Mutex
# (the rank bookkeeping is #[cfg(debug_assertions)] and must compile out).
# Since the mtcheck work this same 1.02x gate also covers the race-
# detector instrumentation: every vector-clock hook call site in the
# ranked locks, and the Shadow cell bookkeeping, is likewise
# #[cfg(debug_assertions)] and must vanish from release builds.
cargo bench -q -p mtgpu-bench --bench dispatch -- --gate-rank 1.02 \
    --out "$PWD/results/BENCH_dispatch.json" "$@"
# Migration gate, a loadgen profile (the bench target that wrapped it is
# gone): on the churned 4-device skewed mix dynamic load balancing must
# deliver ≥1.3x static-placement throughput at no p99 cost, with at least
# one live migration and no aborts. Virtual-clock deterministic: the ratio
# is exact, not sampled. The report carries the gate's verdict (`gate.pass`)
# for the index below.
cargo run -q --release -p mtgpu-loadgen --bin loadgen -- --profile skewed \
    --min-speedup 1.3 --out results/BENCH_migration.json "$@"
# Consolidated trajectory index: one results/BENCH_trajectory.json row
# per BENCH_*.json gate, so a PR's whole gate surface reads at a glance.
python3 - "$PWD/results" <<'PYEOF'
import json, os, sys
results = sys.argv[1]
rows = []
for name in sorted(os.listdir(results)):
    if not (name.startswith("BENCH_") and name.endswith(".json")):
        continue
    if name == "BENCH_trajectory.json":
        continue
    path = os.path.join(results, name)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        rows.append({"file": name, "error": str(e)})
        continue
    row = {"file": name, "bench": doc.get("bench", name[6:-5])}
    # A report may carry several gate objects (e.g. dispatch's rank_gate
    # next to memory's makespan gate); index every dict with a "pass".
    gates = {
        k: v
        for k, v in doc.items()
        if isinstance(v, dict) and ("gate" in k or "pass" in v)
    }
    if gates:
        row["gates"] = gates
        passes = [v["pass"] for v in gates.values() if "pass" in v]
        if passes:
            row["pass"] = all(bool(p) for p in passes)
    rows.append(row)
out = os.path.join(results, "BENCH_trajectory.json")
with open(out, "w") as f:
    json.dump({"benches": rows}, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"trajectory index: {out} ({len(rows)} gates)")
PYEOF
