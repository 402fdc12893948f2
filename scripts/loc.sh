#!/usr/bin/env bash
# Non-test Rust lines of the workspace: the ROADMAP's "tracked number that
# should go down". Counts `src/` and `crates/*/src/`; leaves out `tests/`,
# `benches/`, `examples/`, `shims/`, `#[cfg(test)]` modules, blank lines and
# comment-only lines (doc comments included). One row per crate, then the
# total, then the vendored shims' lines counted the same way (a row of their
# own, out of the total), then the largest file of the memory manager (CI
# tier 0 fails when it is over 600 lines: split along a seam instead), then
# the settable fields of every configuration struct the node reads (the
# ROADMAP's other tracked number): `RuntimeConfig`, `MemoryConfig`,
# `TenantPolicyConfig`, `ReactorConfig` and `DescriptorLimits`, one row
# each, and their sum (`RuntimeConfig`'s `memory` and `tenant_policy` count
# there as one field each besides their own rows). CI tier 0 prints it;
# CHANGES.md records it before/after each PR that moves it.
#
# Usage: scripts/loc.sh [ROOT]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    # A `#[cfg(test)]` attribute followed by a `mod` item opens a test
    # module: skip to its closing brace (brace counting is exact enough —
    # no test module here closes on a brace inside a string).
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { pending = 0; depth = 0 }
        depth > 0 {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*(pub )?mod [A-Za-z_0-9]+ *\{/ {
            pending = 0
            depth = gsub(/\{/, "{") - gsub(/\}/, "}")
            next
        }
        { pending = 0 }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in src crates/*/src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%8d  %s\n' "$n" "${dir%/src}"
done
printf '%8d  total non-test Rust lines\n' "$total"
printf '%8d  shims (vendored dependencies, not in the total)\n' "$(count shims)"

largest=0
for f in crates/core/src/memory/*.rs; do
    n=$(count "$f")
    if ((n > largest)); then
        largest=$n
        largest_file=$f
    fi
done
printf '%8d  largest file under crates/core/src/memory (%s)\n' "$largest" "${largest_file##*/}"

# `pub name: Type,` lines between `pub struct NAME {` and its closing brace.
fields() {
    awk -v name="$1" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}
settable=0
for row in RuntimeConfig:crates/core/src/config.rs \
    MemoryConfig:crates/core/src/memory/manager.rs \
    TenantPolicyConfig:crates/core/src/policy.rs \
    ReactorConfig:crates/api/src/transport/reactor.rs \
    DescriptorLimits:crates/api/src/guard.rs; do
    n=$(fields "${row%%:*}" "${row#*:}")
    settable=$((settable + n))
    printf '%8d  %s fields\n' "$n" "${row%%:*}"
done
printf '%8d  settable fields in total\n' "$settable"
