#!/usr/bin/env bash
# Non-test lines of every crate: every line of each
# `crates/<crate>/src/**/*.rs` file that comes before the file's first
# top-level `#[cfg(test)]` (one at column 0). Prints one count per
# crate, then the sum over core, cli and runtime (the figure ROADMAP
# item 8 tracks), then the total. A report, not a gate.
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
tracked=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(count "$dir")
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
    case $crate in
        core | cli | runtime) tracked=$((tracked + n)) ;;
    esac
done
printf '%-10s %6d\n' core+cli+runtime "$tracked"
printf '%-10s %6d\n' total "$total"
