package knemesis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are exported method names that satisfy standard-library
// interfaces: they are called through those interfaces, never by name in
// this repository.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ServeHTTP": true,
}

// TestNoUnusedExports fails on every exported top-level identifier (type,
// function, method, variable or constant) of a non-test file under
// internal/ or cmd/ that no Go file of the repository — tests, bench/ and
// the facade included — mentions by name. The match is by name only, so a
// name shared with something in use passes; what it catches is code that
// nothing reaches any more.
func TestNoUnusedExports(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, id := range topLevelNames(f) {
			declared[id] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		scanned := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		if !scanned || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for id := range declared {
			if id.IsExported() {
				decls = append(decls, decl{id.Name, fset.Position(id.Pos())})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if !used[d.name] && !interfaceMethods[d.name] {
			unused = append(unused, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but referenced by no Go file", u)
	}
}

// topLevelNames returns the identifiers a file declares at top level:
// functions, methods, types, variables and constants.
func topLevelNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return ids
}
