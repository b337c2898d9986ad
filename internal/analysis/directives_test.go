package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `// Package p tests directive parsing.
package p

type t struct {
	//growt:atomic
	cells []uint64
	plain int
	n     uint64 //growt:atomic
	nx    uint64 //growt:atomicx
}

//growt:exclusive -- construction only
func build() {}

func untagged() {}

//growt:enum status
const (
	sOK int = iota
	sErr
	_
)

// Some prose mentioning growt:enum that is not a directive.
const lone = 1
`

func parseOne(t *testing.T) *ast.File {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFieldDirective(t *testing.T) {
	f := parseOne(t)
	st := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	got := make(map[string]bool)
	for _, field := range st.Fields.List {
		got[field.Names[0].Name] = FieldDirective(field, "atomic")
	}
	want := map[string]bool{"cells": true, "plain": false, "n": true, "nx": false}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("FieldDirective(%s, atomic) = %v, want %v", name, got[name], w)
		}
	}
}

func TestFuncDirectives(t *testing.T) {
	var buildFD, untaggedFD *ast.FuncDecl
	for _, d := range f(t).Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "build":
			buildFD = fd
		case "untagged":
			untaggedFD = fd
		}
	}
	if arg, ok := FuncDirective(buildFD, "exclusive"); !ok || arg != "" {
		t.Errorf("exclusive directive = (%q, %v): the -- reason must be stripped", arg, ok)
	}
	if _, ok := FuncDirective(untaggedFD, "exclusive"); ok {
		t.Error("untagged function reported a directive")
	}
}

func f(t *testing.T) *ast.File { return parseOne(t) }

func TestEnumGroupsFromFiles(t *testing.T) {
	groups := EnumGroupsFromFiles("p", []*ast.File{parseOne(t)})
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.PkgPath != "p" || g.Name != "status" {
		t.Errorf("group = %s.%s, want p.status", g.PkgPath, g.Name)
	}
	if len(g.Members) != 2 || g.Members[0] != "sOK" || g.Members[1] != "sErr" {
		t.Errorf("members = %v, want [sOK sErr] (blank dropped)", g.Members)
	}
}

func TestNewParents(t *testing.T) {
	file := parseOne(t)
	parents := NewParents([]*ast.File{file})
	var n int
	ast.Inspect(file, func(node ast.Node) bool {
		if node == nil || node == ast.Node(file) {
			return true
		}
		n++
		if parents[node] == nil {
			t.Errorf("node %T at %v has no parent", node, node.Pos())
		}
		return true
	})
	if n == 0 {
		t.Fatal("walked no nodes")
	}
}
