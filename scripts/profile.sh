#!/usr/bin/env bash
# Where one mtgpu-perf workload's CPU goes, by function.
#
#   scripts/profile.sh WORKLOAD [SECONDS [THREAD]]   (default 20 s, seed 42)
#
# Builds mtgpu-perf with frame pointers (-C force-frame-pointers=yes) into
# target/profile, so the benchmark's own build is left alone, and the
# sampler in scripts/profile_sampler.c with the system C compiler. The
# sampler runs the workload and samples its task clock at 10 kHz through
# perf_event_open, one event per CPU, inherited by every thread, taking
# user-space IPs and call chains. The samples are symbolized with `nm`
# against the binary's load base, and the script prints a table by thread
# name (the reactor, `mux-worker-N`, the generator: the sampler records
# each thread's name as it is set, and a thread never named goes by its
# parent's), a flat table (the function a sample was
# in) and an inclusive one (every function on its stack, once per sample),
# each over the samples left after the benchmark's own speed calibrator,
# which is not the runtime: samples under `mtgpu_perf::calib`, and every
# sample of its helper thread `perf-calib`, which runs no `calib` frame of
# its own. With THREAD, the flat and inclusive tables count only the
# samples of threads whose name starts with it (`mux-reactor` for the
# reactor), as shares of those. Frames in shared libraries count under the library's name and
# the nearest caller in the binary the frame-pointer walk found: glibc is
# stripped, so its memcpy and allocator are not told apart by name.
#
# It first prints the CPU and its AVX2 and AVX-512F flags on stderr
# (scripts/cpu.sh): the Black-Scholes payload runs the widest build of its
# passes the CPU has, so its share depends on them.
#
# At kernel.perf_event_paranoid 2 only user space can be sampled: time in
# the kernel (syscalls, futex waits, page faults) is not in the tables.
# The run's user and sys CPU seconds (its rusage, as time(1) reports it)
# are printed next to them to show how much that is: sys read 29 %
# (tenant_mix) to 57 % (launch_small) of the CPU of 10 s runs on a
# two-vCPU machine.
#
# Not part of CI: it needs perf_event_open, which a container may forbid.
set -euo pipefail

workload=${1:?usage: scripts/profile.sh WORKLOAD [SECONDS]}
seconds=${2:-20}
only=${3:-}
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/target/profile
mkdir -p "$out"
bash "$root/scripts/cpu.sh" >&2

RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline -q \
    --manifest-path "$root/Cargo.toml" -p mtgpu-perf --target-dir "$out"
cc -O2 -Wall -o "$out/profile_sampler" "$root/scripts/profile_sampler.c"

bin=$out/release/mtgpu-perf
samples=$out/$workload.samples
"$out/profile_sampler" "$samples" 10000 -- "$bin" \
    --workload "$workload" --seed 42 --seconds "$seconds" > "$out/$workload.report"
nm -C --defined-only "$bin" > "$out/mtgpu-perf.nm"

python3 - "$samples" "$out/mtgpu-perf.nm" "$bin" "$only" <<'PY'
import bisect
import collections
import os
import re
import sys

samples_path, nm_path, binary, only = sys.argv[1:]
binary = os.path.realpath(binary)

# Function symbols, by address, with the hash suffix dropped.
syms = []
for line in open(nm_path):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        syms.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
syms.sort()
addrs = [a for a, _ in syms]

maps, chains, lost, rusage, threads, parents = [], [], 0, None, {}, {}
for line in open(samples_path):
    kind, _, rest = line.rstrip("\n").partition(" ")
    if kind == "S":
        fields = rest.split()
        chains.append((int(fields[0]), [int(f, 16) for f in fields[1:]]))
    elif kind == "T":
        tid, _, comm = rest.partition(" ")
        threads[int(tid)] = comm
    elif kind == "F":
        tid, ptid = (int(f) for f in rest.split())
        parents[tid] = ptid
    elif kind == "M":
        f = rest.split(None, 5)
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
    elif kind == "L":
        lost = int(rest)
    elif kind == "R":
        rusage = rest.split()

# nm's addresses are relative to the mapping at file offset 0.
base = min((lo for lo, _, off, path in maps if path == binary and off == 0), default=0)

def name(ip):
    for lo, hi, _, path in maps:
        if lo <= ip < hi:
            if path != binary:
                return f"[{os.path.basename(path) or 'anon'}]"
            i = bisect.bisect_right(addrs, ip - base) - 1
            return syms[i][1] if i >= 0 else "[mtgpu-perf]"
    return "[unknown]"

def thread_name(tid):
    seen = set()
    while tid not in threads and tid in parents and tid not in seen:
        seen.add(tid)
        tid = parents[tid]
    return threads.get(tid, f"tid {tid}")

flat, inclusive, by_thread = collections.Counter(), collections.Counter(), collections.Counter()
calib = outside = 0
for tid, chain in chains:
    names = [name(ip) for ip in chain]
    thread = thread_name(tid)
    if thread == "perf-calib" or any(n.startswith("mtgpu_perf::calib") for n in names):
        calib += 1
        continue
    by_thread[thread] += 1
    if not thread.startswith(only):
        continue
    leaf = names[0]
    if leaf.startswith("["):
        # A library leaf (memcpy, malloc, a syscall stub) keeps no frame
        # pointer: the walk resumes at its caller's caller, named here.
        outside += 1
        caller = next((n for n in names[1:] if not n.startswith("[")), "?")
        leaf = f"{leaf} under {caller}"
    flat[leaf] += 1
    inclusive.update({n for n in names if not n.startswith("[")})
kept = sum(by_thread.values())
picked = sum(flat.values())

user, sys_s, status = rusage or ("?", "?", "?")
print(f"{len(chains)} samples, {calib} in the calibrator left out, {kept} kept, {lost} lost")
print(f"{100 * outside / max(picked, 1):.1f} % of the tables' samples in shared libraries")
if rusage:
    cpu = float(user) + float(sys_s)
    print(f"user {user} s, sys {sys_s} s ({100 * float(sys_s) / cpu:.0f} % of CPU, not sampled)")
print(f"\n{'thread':<16} share  samples")
for thread, n in by_thread.most_common():
    print(f"{thread:<16} {100 * n / max(kept, 1):5.1f} % {n:8d}")
if only:
    print(f"\nthe tables below: threads named {only}*, {picked} samples")
for title, counts in (("flat (self)", flat), ("inclusive", inclusive)):
    print(f"\n{title:<10}  share  samples  function")
    for fn, n in counts.most_common(30):
        print(f"{'':<10} {100 * n / max(picked, 1):5.1f} % {n:8d}  {fn[:110]}")
PY
tail -n 1 "$out/$workload.report" | cut -c1-200
