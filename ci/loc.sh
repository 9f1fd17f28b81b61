#!/usr/bin/env bash
# Line ledger: non-test, non-blank, non-comment Go lines outside bench/,
# per top-level package (sub-packages fold into their parent, so
# internal/server includes its client) and in total — the one number
# ROADMAP.md's "Quality of design" aim quotes. CI prints it; nothing
# gates on it.
#
#   ci/loc.sh        the ledger of the working tree
#   ci/loc.sh REV    before (REV), after (the working tree) and delta,
#                    per package; REV is checked out into a temporary
#                    git worktree that is removed on exit
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR prints "<lines> <package>" for every counted file under DIR.
count() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | while read -r f; do
        n=$(grep -v '^\s*//' "$f" | grep -v '^\s*$' | wc -l)
        echo "$n $(dirname "${f#./}" | cut -d/ -f1-2)"
    done)
}

if [ $# -eq 0 ]; then
    count . | awk '
        { lines[$2] += $1; total += $1 }
        END {
            for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
    exit 0
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$1"
{ count "$tmp/base" | sed 's/^/before /'; count . | sed 's/^/after /'; } | awk '
    { n[$1, $3] += $2; pkg[$3] = 1; total[$1] += $2 }
    END {
        printf "%7s %7s %7s  %s\n", "before", "after", "delta", "package"
        fflush()
        for (p in pkg) {
            b = n["before", p]; a = n["after", p]
            printf "%7d %7d %+7d  %s\n", b, a, a - b, p | "sort -k4"
        }
        close("sort -k4")
        b = total["before"]; a = total["after"]
        printf "%7d %7d %+7d  total\n", b, a, a - b
    }'
