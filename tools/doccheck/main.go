// Command doccheck enforces the repository's documentation floor, using only
// go/parser (no external tooling): every package must carry a package-level
// doc comment, and every package of the module at root must document every
// exported top-level declaration. A directory below root with a go.mod of its
// own (the benchmark) starts another module, whose exported API is its own
// concern: its packages are held to the package doc comment only. `make lint`
// runs it across the module; CI fails when documentation regresses.
//
// Usage:
//
//	doccheck [root]
//
// root defaults to the current directory. Vendored, hidden and testdata
// directories are skipped, as are _test.go files (test helpers may stay
// terse).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	var problems, others []string // others: roots of nested modules, with a trailing separator
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dir := path + string(filepath.Separator)
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			others = append(others, dir)
		}
		exported := true
		for _, o := range others {
			exported = exported && !strings.HasPrefix(dir, o)
		}
		rel, _ := filepath.Rel(root, path)
		problems = append(problems, checkDir(path, rel, exported)...)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses the non-test Go files of one directory and reports its
// documentation problems — with exported, undocumented exported
// declarations too; a directory without Go files reports none.
func checkDir(dir, rel string, exported bool) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", rel, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasDoc = true
				break
			}
		}
		if !hasDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", rel, pkg.Name))
		}
		if !exported {
			continue
		}
		for fname, f := range pkg.Files {
			for _, decl := range f.Decls {
				out = append(out, checkDecl(fset, fname, decl)...)
			}
		}
	}
	return out
}

// checkDecl reports exported top-level declarations without doc comments.
func checkDecl(fset *token.FileSet, fname string, decl ast.Decl) []string {
	at := func(p token.Pos) string { return fset.Position(p).String() }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			return []string{fmt.Sprintf("%s: exported %s %s has no doc comment", at(d.Pos()), kind, d.Name.Name)}
		}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			var names []*ast.Ident
			var specDoc *ast.CommentGroup
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names, specDoc = []*ast.Ident{s.Name}, s.Doc
			case *ast.ValueSpec:
				names, specDoc = s.Names, s.Doc
			}
			for _, n := range names {
				if n.IsExported() && d.Doc == nil && specDoc == nil {
					out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment", at(n.Pos()), d.Tok, n.Name))
				}
			}
		}
		return out
	}
	return nil
}
