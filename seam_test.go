package slicer

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seamFile is the one root-package file allowed to report queries to
// the sinks (Recording.finish).
const seamFile = "query.go"

// TestQuerySinksOnlyAtSeam keeps the query-event seam the only place a
// query's observations are emitted: outside seamFile, the root
// package's non-test Go must build no querylog.Record, call no stats
// Recorder Observe* method, and name no slice.* metric or
// slice/ / explain/ span.
func TestQuerySinksOnlyAtSeam(t *testing.T) {
	observe := statsObserveMethods(t)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, name := range files {
		if name == seamFile || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		report := func(n ast.Node, what string) {
			bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Record" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "querylog" {
						report(n, "querylog.Record literal")
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && observe[sel.Sel.Name] {
					report(n, "stats call "+sel.Sel.Name)
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					break
				}
				if v, err := strconv.Unquote(n.Value); err == nil {
					for _, prefix := range []string{"slice.", "slice/", "explain/"} {
						if strings.HasPrefix(v, prefix) {
							report(n, "query metric "+strconv.Quote(v))
						}
					}
				}
			}
			return true
		})
	}
	if len(bad) > 0 {
		t.Fatalf("query observations emitted outside %s (route them through Recording.finish):\n%s",
			seamFile, strings.Join(bad, "\n"))
	}
}

// statsObserveMethods returns the names of the stats Recorder's
// Observe* methods, read from the package source so a new one is
// guarded without editing this test.
func statsObserveMethods(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "telemetry", "stats"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for fname, f := range pkg.Files {
			if strings.HasSuffix(fname, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !strings.HasPrefix(fd.Name.Name, "Observe") {
					continue
				}
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Recorder" {
						names[fd.Name.Name] = true
					}
				}
			}
		}
	}
	if !names["ObserveQuery"] || !names["ObserveCost"] {
		t.Fatalf("stats.Recorder Observe* methods not found: %v", names)
	}
	return names
}
