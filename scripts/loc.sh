#!/usr/bin/env bash
# Count non-test code lines in the workspace sources.
#
#   ./scripts/loc.sh           # total over crates/ and examples/
#   ./scripts/loc.sh --files   # per-file counts, then the total
#   ./scripts/loc.sh --root D  # count the tree at D instead
#
# A line counts when it is in a `.rs` file under `crates/` or
# `examples/` (build output under `target/` excluded), is neither
# blank nor a `//` comment (doc comments included), and lies outside
# every `#[cfg(test)] mod ... { ... }` block. Block ends are found by
# counting braces per line, so braces inside string or char literals
# in a test module can skew the count; the workspace keeps such
# literals balanced.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
per_file=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --files) per_file=1 ;;
        --root)
            shift
            root="$(cd "${1:?--root needs a directory}" && pwd)"
            ;;
        *) echo "loc.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

cd "$root"
find crates examples -name target -prune -o -name '*.rs' -type f -print |
    LC_ALL=C sort |
    xargs awk -v per_file="$per_file" '
        FNR == 1 {
            if (NR > 1 && per_file) printf "%7d %s\n", n, prev
            n = 0; prev = FILENAME; pending = 0; depth = 0; skipping = 0
        }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (skipping) {
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth <= 0) skipping = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; next }
            if (pending && line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *\{/) {
                pending = 0
                depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                skipping = depth > 0
                next
            }
            if (line != "" && line !~ /^\/\//) {
                # A cfg(test) item that is not a module (a fn, a use)
                # is counted like any other code.
                if (pending) { n++; total++ }
                pending = 0
                n++
                total++
            }
        }
        END {
            if (per_file && NR > 0) printf "%7d %s\n", n, prev
            print total + 0
        }
    '
