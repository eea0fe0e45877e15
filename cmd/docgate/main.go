// Command docgate enforces doc comments on exported identifiers. It
// parses the packages named on the command line (non-test files only) and
// fails listing every exported type, function, method, constant and
// variable that lacks a doc comment. `make lint` runs it over every
// package `go list ./internal/...` reports, so the godoc surface cannot
// silently drift.
//
// Grouped declarations follow godoc convention: a doc comment on the
// `const (...)` / `var (...)` block covers every spec inside it, and a
// comment on an individual spec covers that spec.
//
// With -arch FILE it additionally enforces the architecture doc's
// package table: every first-level package directory under -internal
// (default "internal") that contains Go code anywhere in its tree must
// be mentioned in FILE as `internal/<name>`. A package added without a
// row in ARCHITECTURE.md fails `make lint`, so the doc cannot silently
// fall behind the tree.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// missing is one undocumented exported identifier.
type missing struct {
	pos  token.Position
	what string
	name string
}

func checkDir(fset *token.FileSet, dir string) ([]missing, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []missing
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			out = append(out, checkFile(fset, file)...)
		}
	}
	return out, nil
}

func checkFile(fset *token.FileSet, file *ast.File) []missing {
	var out []missing
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				// Only methods on exported receivers are godoc surface.
				recv := receiverTypeName(d.Recv.List[0].Type)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				what = "method"
				name = recv + "." + name
			}
			out = append(out, missing{fset.Position(d.Pos()), what, name})
		case *ast.GenDecl:
			blockDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !blockDoc && s.Doc == nil {
						out = append(out, missing{fset.Position(s.Pos()), "type", s.Name.Name})
					}
				case *ast.ValueSpec:
					if blockDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							out = append(out, missing{fset.Position(n.Pos()), kind, n.Name})
						}
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName unwraps a method receiver type down to its base
// identifier: *T, T, and generic T[P] all yield "T".
func receiverTypeName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// hasGoCode reports whether dir (or any subdirectory) holds a non-test
// Go source file.
func hasGoCode(dir string) bool {
	found := false
	filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || found {
			return filepath.SkipDir
		}
		if !fi.IsDir() && strings.HasSuffix(fi.Name(), ".go") && !strings.HasSuffix(fi.Name(), "_test.go") {
			found = true
		}
		return nil
	})
	return found
}

// checkArch enforces the architecture doc's package table: every
// first-level package directory under root with Go code in its tree
// must appear in the doc as `internal/<name>`.
func checkArch(archPath, root string) []string {
	doc, err := os.ReadFile(archPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docgate:", err)
		os.Exit(2)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docgate:", err)
		os.Exit(2)
	}
	var absent []string
	for _, e := range entries {
		if !e.IsDir() || !hasGoCode(filepath.Join(root, e.Name())) {
			continue
		}
		if !strings.Contains(string(doc), "internal/"+e.Name()) {
			absent = append(absent, "internal/"+e.Name())
		}
	}
	return absent
}

func main() {
	arch := flag.String("arch", "", "architecture doc whose package table must cover every -internal package")
	internalRoot := flag.String("internal", "internal", "package root scanned for the -arch table check")
	flag.Parse()
	if *arch == "" && flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: docgate [-arch FILE [-internal DIR]] [DIR...]")
		os.Exit(2)
	}
	fset := token.NewFileSet()
	var all []missing
	for _, dir := range flag.Args() {
		ms, err := checkDir(fset, filepath.Clean(dir))
		if err != nil {
			fmt.Fprintln(os.Stderr, "docgate:", err)
			os.Exit(2)
		}
		all = append(all, ms...)
	}
	failed := false
	if len(all) > 0 {
		for _, m := range all {
			fmt.Fprintf(os.Stderr, "%s: undocumented exported %s %s\n", m.pos, m.what, m.name)
		}
		fmt.Fprintf(os.Stderr, "docgate: %d undocumented exported identifiers\n", len(all))
		failed = true
	}
	if *arch != "" {
		if absent := checkArch(*arch, *internalRoot); len(absent) > 0 {
			for _, pkg := range absent {
				fmt.Fprintf(os.Stderr, "%s: package %s missing from the package table\n", *arch, pkg)
			}
			fmt.Fprintf(os.Stderr, "docgate: %d packages absent from %s\n", len(absent), *arch)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("docgate: ok")
}
