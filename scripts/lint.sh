#!/bin/sh
# scripts/lint.sh — the exact static-analysis sequence CI's lint job
# runs, invocable locally. Three gates, all blocking:
#
#   1. growvet: the repository's own four analyzers (cell protocol,
#      status exhaustiveness, hot-path allocation budget, wire-contract
#      pairing — see docs/ANALYSIS.md)
#   2. staticcheck at the pinned version (selection in staticcheck.conf)
#   3. govulncheck at the pinned version
#
# Environment knobs:
#   GROWVET=<path>       where to place/find the growvet binary
#                        (default bin/growvet)
#   GROWVET_PREBUILT=1   trust an existing $GROWVET instead of
#                        rebuilding — CI sets this on a source-keyed
#                        cache hit; leave unset locally
#   GROWVET_ONLY=1       skip staticcheck/govulncheck (offline use:
#                        both install from the module proxy)
set -eu

cd "$(dirname "$0")/.."

GROWVET="${GROWVET:-bin/growvet}"
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"

if [ -x "$GROWVET" ] && [ "${GROWVET_PREBUILT:-}" = "1" ]; then
    echo "==> growvet: reusing prebuilt $GROWVET"
else
    echo "==> build growvet -> $GROWVET"
    go build -o "$GROWVET" ./cmd/growvet
fi

echo "==> growvet (cell protocol / status switches / hot paths / wire pairing)"
go vet -vettool="$GROWVET" ./...

if [ "${GROWVET_ONLY:-}" = "1" ]; then
    echo "==> GROWVET_ONLY=1: skipping staticcheck and govulncheck"
    exit 0
fi

echo "==> staticcheck ($STATICCHECK_VERSION)"
go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
staticcheck ./...

echo "==> govulncheck ($GOVULNCHECK_VERSION)"
go install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"
govulncheck ./...
