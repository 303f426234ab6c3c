#!/usr/bin/env bash
# Non-test lines of the core, cli and runtime crates: every line of
# each `crates/{core,cli,runtime}/src/**/*.rs` file that comes before
# the file's first top-level `#[cfg(test)]` (one at column 0). Prints
# one count per crate, then the total. A report, not a gate.
#
# Usage: scripts/nontest-lines.sh   (from anywhere in the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { testing = 0 }
        /^#\[cfg\(test\)\]/ { testing = 1 }
        !testing { n++ }
        END { print n + 0 }'
}

total=0
for crate in core cli runtime; do
    n=$(count "crates/$crate/src")
    printf '%-8s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
