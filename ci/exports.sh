#!/usr/bin/env bash
# Export ledger: every exported top-level function and method declared
# in a non-test Go file outside bench/ whose name no other non-test Go
# file (bench/ included) mentions by word match. Whole-line comments do
# not count as a mention, as in ci/loc.sh. Such a name has no shipped
# caller outside its own file: it is either a public entry point kept on
# purpose or a candidate for deletion. A method shares its name with
# every other method of that name, so the ledger can miss an unused one;
# it never lists a name another file uses. CI prints it; nothing gates
# on it.
#
#   ci/exports.sh    "<file>: <Type.>Name" per line, then the count
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' | sed 's|^\./||' | sort)
awk '
    /^[[:space:]]*\/\// { next }
    FILENAME !~ /^bench\// && match($0, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/) {
        decl = substr($0, 6, RLENGTH - 5)
        recv = ""
        if (decl ~ /^\(/) {
            recv = substr(decl, 2, index(decl, ")") - 2)
            decl = substr(decl, index(decl, ")") + 2)
            sub(/.*[ *]/, "", recv)  # drop the receiver name and pointer
            sub(/\[.*/, "", recv)    # drop type parameters
            recv = recv "."
        }
        decls[++nd] = FILENAME ": " recv decl
        names[nd] = decl
    }
    {
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w ~ /^[A-Z]/ && !((w, FILENAME) in seen)) {
                seen[w, FILENAME] = 1
                files[w]++
            }
        }
    }
    END {
        for (i = 1; i <= nd; i++) {
            if (files[names[i]] == 1) {
                print decls[i] | "sort"
                count++
            }
        }
        close("sort")
        printf "%d exported functions and methods named in no other non-test file\n", count
    }' "${files[@]}"
