#!/usr/bin/env bash
# Non-test Rust lines of the workspace: the ROADMAP's "tracked number that
# should go down". Counts `src/` and `crates/*/src/`; leaves out `tests/`,
# `benches/`, `examples/`, `shims/`, `#[cfg(test)]` modules, blank lines and
# comment-only lines (doc comments included). One row per crate, then the
# total, then the vendored shims' lines counted the same way (a row of their
# own, out of the total, and one row per shim under it), then the largest
# file of the memory manager (CI tier 0 fails when it is over 600 lines:
# split along a seam instead), then the settable fields of every
# configuration struct the node reads (the ROADMAP's other tracked number):
# `RuntimeConfig`, `MemoryConfig`, `TenantPolicyConfig`, `ReactorConfig`
# and `DescriptorLimits`, one row each, and their sum (`RuntimeConfig`'s
# `memory` and `tenant_policy` count there as one field each besides their
# own rows). CI tier 0 prints it; CHANGES.md records it before/after each
# PR that moves it.
#
# Usage: scripts/loc.sh [ROOT]   (default: this checkout)
#        scripts/loc.sh --count PATH...   (the count of PATH alone; CI tier
#        0 checks the counter itself on scripts/loc_fixture.rs with it)
set -euo pipefail

count() {
    # A `#[cfg(test)]` attribute followed by a `mod` item opens a test
    # module: skip to its closing brace. Braces inside string literals
    # (plain, byte and raw, over several lines too), char literals and
    # line comments do not count.
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        # Net braces on `line` outside literals and comments; `quote`
        # carries an open string to the next line: "" none, "\"" a plain
        # one, else the closing quote of a raw one (`"` and its hashes).
        function braces(line,    i, c, n, k) {
            n = 0
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (quote == "\"") {
                    if (c == "\\") i++
                    else if (c == "\"") quote = ""
                } else if (quote != "") {
                    if (substr(line, i, length(quote)) == quote) {
                        i += length(quote) - 1
                        quote = ""
                    }
                } else if (c == "/" && substr(line, i + 1, 1) == "/") {
                    break
                } else if (c == "r" && substr(line, 1, i - 1) ~ /(^|[^A-Za-z0-9_])b?$/ &&
                           match(substr(line, i + 1), /^#*"/)) {
                    quote = "\"" substr(line, i + 1, RLENGTH - 1)
                    i += RLENGTH
                } else if (c == "\"") {
                    quote = "\""
                } else if (c == "\047") {
                    # A char literal, unlike a lifetime, closes within a
                    # few characters (an escape such as \u{7f} included).
                    if (substr(line, i + 1, 1) == "\\") {
                        k = index(substr(line, i + 3), "\047")
                        if (k > 0) i += k + 2
                    } else if (substr(line, i + 2, 1) == "\047") {
                        i += 2
                    }
                } else if (c == "{") {
                    n++
                } else if (c == "}") {
                    n--
                }
            }
            return n
        }
        FNR == 1 { pending = 0; depth = 0; quote = "" }
        depth > 0 {
            depth += braces($0)
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*(pub )?mod [A-Za-z_0-9]+ *\{/ {
            pending = 0
            depth = braces($0)
            next
        }
        { pending = 0 }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

if [[ "${1:-}" == "--count" ]]; then
    shift
    count "$@"
    exit
fi
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in src crates/*/src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%8d  %s\n' "$n" "${dir%/src}"
done
printf '%8d  total non-test Rust lines\n' "$total"
printf '%8d  shims (vendored dependencies, not in the total)\n' "$(count shims)"
for dir in shims/*/src; do
    printf '%8d    %s\n' "$(count "$dir")" "${dir%/src}"
done

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
