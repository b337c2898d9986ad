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

# install fetches a pinned tool from the module proxy. Offline that fails
# with a raw DNS or proxy error; say what it means instead, and still fail:
# the gate stays blocking.
install() {
    if ! out=$(go install "$1" 2>&1); then
        printf '%s\n' "$out" >&2
        echo "lint.sh: could not install $1: the module proxy is unreachable (offline?)." >&2
        echo "lint.sh: GROWVET_ONLY=1 ./scripts/lint.sh runs the growvet gate alone; staticcheck and govulncheck need the network." >&2
        exit 1
    fi
}

echo "==> staticcheck ($STATICCHECK_VERSION)"
install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
staticcheck ./...

echo "==> govulncheck ($GOVULNCHECK_VERSION)"
install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"
govulncheck ./...
