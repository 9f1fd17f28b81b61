// Command exports prints the export ledger: every exported top-level
// function and method declared in a non-test file of a library package
// that no non-test file of the module uses, bench/, cmd/ and examples/
// included. Uses are resolved with go/types, so a method is matched by
// its receiver, not by its name, and a function's calls from its own
// body do not count. A method that satisfies a named interface declared
// in the module or in a package it imports (storage.Store, wal.FS,
// slog.Handler, json.Marshaler, fmt.Stringer, ...) is skipped: a call
// through the interface does not name it. A listed name is either a
// public entry point kept on purpose or a candidate for deletion. It
// reports only; nothing gates on it. It uses the standard library
// alone: `go list` for the packages in dependency order, go/parser and
// go/types for the module's, and the compiler's export data for the
// standard library's.
//
// Run it from the module root:
//
//	go run ./ci/exports    "<file>: <Type.>Name" per line, then the count
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func main() {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Stderr = os.Stderr
	listed, err := cmd.Output()
	check(err)
	wd, err := os.Getwd()
	check(err)

	fset := token.NewFileSet()
	std := importer.Default()
	module := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := module[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var decls []*types.Func
	used := map[*types.Func]bool{}
	dec := json.NewDecoder(bytes.NewReader(listed))
	for dec.More() {
		var p struct {
			Dir, ImportPath, Name string
			Standard              bool
			GoFiles               []string
		}
		check(dec.Decode(&p))
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			check(err)
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		module[p.ImportPath], err = (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		check(err)
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name].(*types.Func)
					if p.Name != "main" && fd.Name.IsExported() {
						decls = append(decls, self)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	// Every named, non-generic interface of the module's packages and
	// of the packages they import, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, tp := range module {
		visit(tp)
	}
	var out []string
	for _, fn := range decls {
		if used[fn] {
			continue
		}
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if implements(ifaces, name, t) {
				continue
			}
			name = t.(*types.Named).Obj().Name() + "." + name
		}
		file, _ := filepath.Rel(wd, fset.Position(fn.Pos()).Filename)
		out = append(out, filepath.ToSlash(file)+": "+name)
	}
	slices.Sort(out)
	for _, s := range out {
		fmt.Println(s)
	}
	fmt.Printf("%d exported functions and methods no non-test file uses\n", len(out))
}

// implements reports whether T or *T implements an interface of ifaces
// that has a method of the given name.
func implements(ifaces []*types.Interface, name string, t types.Type) bool {
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "exports:", err)
		os.Exit(1)
	}
}
