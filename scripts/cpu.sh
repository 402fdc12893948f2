#!/usr/bin/env bash
# Prints one line naming the CPU and whether it has AVX2 and AVX-512F:
# the Black-Scholes payload runs the widest build of its passes the CPU
# has, so a benchmark's numbers depend on them. scripts/pair.sh and
# scripts/profile.sh print it on stderr before they run anything.
#
#   scripts/cpu.sh   ->   cpu: <model name>, avx2 yes, avx512f no
set -euo pipefail

model=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2> /dev/null || true)
flags=" $(awk -F': ' '/^flags/ { print $2; exit }' /proc/cpuinfo 2> /dev/null || true) "
has() { [[ "$flags" == *" $1 "* ]] && echo yes || echo no; }
echo "cpu: ${model:-unknown}, avx2 $(has avx2), avx512f $(has avx512f)"
