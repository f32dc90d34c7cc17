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

// testHelpers are the exports that only tests reference and that stay
// exported all the same: reference helpers the tests of several packages
// share, which an export_test.go cannot carry across packages. Each maps
// its package-qualified name to the reason it stays.
var testHelpers = map[string]string{
	"cache.Cache.ContainsDirty":   "hw's coherence differential test audits the directory's dirty owners against it",
	"cache.Cache.ResidentBytes":   "hw's coherence differential test audits the directory's presence bits against it",
	"cache.Cache.ForEachResident": "hw's coherence differential test audits the directory's entries and way hints against it",
	"cache.Directory.ForEach":     "hw's coherence differential test audits the caches' contents against it",
	"mem.Buffer.FillPattern":      "nine test packages stamp payloads with it",
	"mem.EqualBytes":              "nine test packages verify payloads with it",
	"mem.VecOf":                   "nine test packages wrap whole buffers with it",
	"perturb.MustParse":           "three test packages build perturbation tables with it",
	"mpi.TypeVector":              "the noncontiguous example and mpi's tests build strided datatypes with it; ROADMAP 15 gives it a caller",
}

// reachedUnimported are the methods the program calls only from packages
// that do not import the method's own, through a type alias or a field of
// another package's type. Each maps its package-qualified name to the
// caller.
var reachedUnimported = map[string]string{
	"hw.Utilization.TotalCoreBusySec": "imb's multi-pair bench calls it on a comm.Usage, an alias of hw.Utilization",
}

// TestNoUnusedExports fails on every exported top-level identifier (type,
// function, method, variable or constant) of a non-test file under
// internal/ or cmd/ that no non-test Go file of the repository — the
// facade and bench/ included — mentions by name, unless testHelpers lists
// it; a name that no file mentions at all is reported as such. A method
// counts as mentioned only in its own package or in a package that imports
// it, so that a method of the same name on another package's type (a
// csv.Writer's Flush) does not keep it alive, unless reachedUnimported
// lists it. Only a method of an unexported type that one of the program's
// interface types names is matched by name alone: nothing outside its
// package can name its type, so it is called through the interface. It
// also fails on a testHelpers or reachedUnimported entry that names no
// export the rule flags. What it catches is code that nothing but tests
// reaches; a name shared with something in use passes.
func TestNoUnusedExports(t *testing.T) {
	var decls []exportDecl
	usedByProgram, usedByTests := map[string]bool{}, map[string]bool{}
	// Per package (its import path) of the program: the identifiers its
	// non-test files mention and the packages they import.
	mentions, imports := map[string]map[string]bool{}, map[string]map[string]bool{}
	// dynamic holds the method names of the program's interface types.
	dynamic := map[string]bool{}
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
		isTest := strings.HasSuffix(path, "_test.go")
		pkg := importPath(path)
		used, pkgUsed := usedByTests, map[string]bool{}
		if !isTest {
			used = usedByProgram
			if mentions[pkg] == nil {
				mentions[pkg], imports[pkg] = map[string]bool{}, map[string]bool{}
			}
			pkgUsed = mentions[pkg]
			for _, imp := range f.Imports {
				imports[pkg][strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		names := topLevelNames(f)
		declared := map[*ast.Ident]bool{}
		for _, n := range names {
			declared[n.id] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					used[n.Name], pkgUsed[n.Name] = true, true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						dynamic[id.Name] = dynamic[id.Name] || !isTest
					}
				}
			}
			return true
		})
		scanned := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		if !scanned || isTest {
			return nil
		}
		for _, n := range names {
			if n.id.IsExported() {
				decls = append(decls, exportDecl{n.id.Name, f.Name.Name + "." + n.qualified, pkg, fset.Position(n.id.Pos())})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mentioned := func(d exportDecl) bool {
		receiver, method := d.receiver()
		if !method || (dynamic[d.name] && !ast.IsExported(receiver)) {
			return usedByProgram[d.name]
		}
		for pkg, names := range mentions {
			if names[d.name] && (pkg == d.pkg || imports[pkg][d.pkg]) {
				return true
			}
		}
		return false
	}
	var unused []string
	listed := map[string]bool{}
	for _, d := range decls {
		switch {
		case mentioned(d) || interfaceMethods[d.name]:
		case testHelpers[d.qualified] != "":
			listed[d.qualified] = true
		case usedByProgram[d.name] && reachedUnimported[d.qualified] != "":
			listed[d.qualified] = true
		case usedByProgram[d.name]:
			unused = append(unused, d.pos.String()+": "+d.qualified+" is exported but only packages that do not import "+d.pkg+" mention it")
		case usedByTests[d.name]:
			unused = append(unused, d.pos.String()+": "+d.qualified+" is exported but only tests reference it")
		default:
			unused = append(unused, d.pos.String()+": "+d.qualified+" is exported but referenced by no Go file")
		}
	}
	for name := range testHelpers {
		if !listed[name] {
			unused = append(unused, "testHelpers lists "+name+", which is no export that only tests reference")
		}
	}
	for name := range reachedUnimported {
		if !listed[name] {
			unused = append(unused, "reachedUnimported lists "+name+", which is no method only unimporting packages mention")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// exportDecl is one exported top-level identifier of the program, in the
// package with import path pkg.
type exportDecl struct {
	name, qualified, pkg string
	pos                  token.Position
}

// receiver returns a method's receiver type name, and false for anything
// but a method.
func (d exportDecl) receiver() (string, bool) {
	parts := strings.Split(d.qualified, ".")
	return parts[1], len(parts) == 3
}

// topName is one top-level identifier with its name qualified by its
// receiver's type for a method ("Type.Method").
type topName struct {
	id        *ast.Ident
	qualified string
}

// importPath is the import path of the package a file of this module
// belongs to; bench/'s files count as the package knemesis/bench they
// would be imported as.
func importPath(file string) string {
	if dir := filepath.ToSlash(filepath.Dir(file)); dir != "." {
		return "knemesis/" + dir
	}
	return "knemesis"
}

// topLevelNames returns the identifiers a file declares at top level:
// functions, methods, types, variables and constants.
func topLevelNames(f *ast.File) []topName {
	var names []topName
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			q := d.Name.Name
			if d.Recv != nil {
				q = receiverType(d.Recv.List[0].Type) + "." + q
			}
			names = append(names, topName{d.Name, q})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, topName{s.Name, s.Name.Name})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, topName{id, id.Name})
					}
				}
			}
		}
	}
	return names
}

// receiverType names a method receiver's type: T for T, *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
