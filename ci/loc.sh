#!/usr/bin/env bash
# Line ledger: non-test, non-blank, non-comment Go lines outside bench/,
# per top-level package (sub-packages fold into their parent, so
# internal/server includes its client) and in total — the one number
# ROADMAP.md's "Quality of design" aim quotes. CI prints it; nothing
# gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | while read -r f; do
    n=$(grep -v '^\s*//' "$f" | grep -v '^\s*$' | wc -l)
    pkg=$(dirname "${f#./}" | cut -d/ -f1-2)
    echo "$n $pkg"
done | awk '
    { lines[$2] += $1; total += $1 }
    END {
        for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
