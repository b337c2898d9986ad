// Command growvet is the repository's custom vet tool: four analyzers
// that turn the cell protocol's state-machine invariants, status
// exhaustiveness, the wire contract's dispatch/encode/decode pairing,
// and the hot paths' zero-allocation budget into build-time errors.
//
// Run it through cmd/go, which feeds it one package at a time:
//
//	go build -o /tmp/growvet ./cmd/growvet
//	go vet -vettool=/tmp/growvet ./...
//
// See docs/ANALYSIS.md for what each analyzer enforces, the //growt:
// directives that drive them, and which seeded bugs only they catch.
package main

import (
	"repro/internal/analysis/atomiccell"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/statusswitch"
	"repro/internal/analysis/unit"
	"repro/internal/analysis/wirepair"
)

func main() {
	unit.Main(
		atomiccell.Analyzer,
		statusswitch.Analyzer,
		hotpathalloc.Analyzer,
		wirepair.Analyzer,
	)
}
