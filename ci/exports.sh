#!/usr/bin/env bash
# Export ledger: the exported functions and methods no non-test file of
# the module uses, resolved with go/types (ci/exports/main.go says how).
# Report only; CI prints it and nothing gates on it.
#
#   ci/exports.sh    "<file>: <Type.>Name" per line, then the count
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./ci/exports
