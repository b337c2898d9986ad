// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface this repository needs: a
// named Analyzer with a Run function over a type-checked package, plus
// the driver glue (internal/analysis/unit) that speaks cmd/go's
// `go vet -vettool=` protocol and the test harness
// (internal/analysis/analysistest) that checks analyzers against
// `// want` fixtures.
//
// The container this repository builds in has no module proxy access,
// so x/tools cannot be a dependency; everything here rides the standard
// library (go/ast, go/types, go/importer) — which is all x/tools'
// unitchecker itself uses underneath.
//
// The repository's four analyzers (atomiccell, statusswitch, wirepair,
// hotpathalloc) are driven by directive comments (see directives.go):
// //growt:atomic, //growt:exclusive, //growt:enum, //growt:wire,
// //growt:hotpath. docs/ANALYSIS.md maps each analyzer and directive
// to the cell-protocol invariant or wire contract it enforces, and
// records the seeded bugs only growvet catches.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the one-paragraph help text; its first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportedEnums lists the //growt:enum const groups declared by
	// imported packages — the one cross-package fact this suite needs.
	// The unit driver sources it from dependency vetx files; the test
	// harness extracts it from fixture imports directly.
	ImportedEnums []EnumGroup

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// EnumGroup is the fact statusswitch exchanges across packages: a named
// set of constants declared in one //growt:enum-tagged const block.
type EnumGroup struct {
	PkgPath string   `json:"pkg"`
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// Parents maps every AST node of a set of files to its parent node —
// the context lookup atomiccell needs to classify how an expression is
// used.
type Parents map[ast.Node]ast.Node

// NewParents indexes the files.
func NewParents(files []*ast.File) Parents {
	p := make(Parents)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				p[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return p
}
