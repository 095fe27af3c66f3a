// Command checkdoc verifies that every exported identifier in the given
// package directories carries a doc comment: functions, methods with
// exported receivers, types, exported constants and variables, struct
// fields, and interface methods. CI runs it over the public facade and
// the operator-facing packages (internal/shard, internal/obs) so the
// godoc surface cannot silently regress:
//
//	go run ./scripts/checkdoc . ./internal/shard ./internal/obs
//
// A group doc comment on a const/var block covers every spec in the
// block; a trailing line comment on a spec or field also counts. Test
// files are skipped. Exit status is 1 if any identifier is undocumented,
// with one "file:line: identifier" diagnostic per gap.
//
// It also holds the query surface to the ceilings PR 22 brought it down to
// (see ceilings): a method added to shard.DB, shard.Backend or
// *core.Database beyond them fails the run, so the search-method matrix
// that Do replaced cannot regrow unreviewed; the flags cmd/mdsserve defines
// are capped the same way. It holds the documents under the current
// directory to their budget (checkRefs): DESIGN.md within designBudget
// lines, and every DESIGN section and ROADMAP item a .go or .md file cites
// present. And it prints the count each ROADMAP re-anchor tracks: non-test
// Go lines outside bench/, under the current directory.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ceilings caps the methods of the types a query travels through — an
// interface's own methods, a struct's exported ones — and, as
// "mdsserve.flags", the command-line flags the server defines. Lowering
// one after a deletion is welcome; raising one is a design decision to
// argue in review.
var ceilings = []struct {
	pkg, typ string
	max      int
}{
	{"shard", "DB", 24},
	{"shard", "Backend", 3},
	{"core", "Database", 38},
	{"pager", "Pager", 11},
	{"mdsserve", "flags", 18},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: checkdoc <pkgdir> [pkgdir...]")
		os.Exit(2)
	}
	var gaps []string
	counts := map[string]int{} // "pkg.Type" or "dir.flags" → what counts toward its ceiling
	for _, dir := range os.Args[1:] {
		g, err := checkDir(dir, counts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkdoc: %s: %v\n", dir, err)
			os.Exit(2)
		}
		gaps = append(gaps, g...)
	}
	for _, g := range gaps {
		fmt.Println(g)
	}
	if len(gaps) > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d exported identifier(s) missing doc comments\n", len(gaps))
		os.Exit(1)
	}
	over := false
	for _, c := range ceilings {
		if n, seen := counts[c.pkg+"."+c.typ]; seen && n > c.max {
			fmt.Fprintf(os.Stderr, "checkdoc: %s.%s counts %d, ceiling %d: answer the new need through Do (a method) or without a knob (a flag), or argue the ceiling\n", c.pkg, c.typ, n, c.max)
			over = true
		}
	}
	if over {
		os.Exit(1)
	}
	bad, err := checkRefs(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkdoc: checking document references: %v\n", err)
		os.Exit(2)
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d document budget or reference failure(s)\n", len(bad))
		os.Exit(1)
	}
	lines, err := nonTestLines(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkdoc: counting lines: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("checkdoc: %d non-test Go lines outside bench/\n", lines)
}

// nonTestLines counts the lines of every non-test Go file under root,
// bench/ and the harness's build directory left out.
func nonTestLines(root string) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" && filepath.Dir(path) == root || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		total += bytes.Count(b, []byte("\n"))
		return err
	})
	return total, err
}

// checkDir parses every non-test Go file in dir and returns one
// diagnostic per undocumented exported identifier. Into counts it adds,
// per type named in ceilings, the methods that count toward the ceiling,
// and under "<dir>.flags" the flags a command in dir defines.
func checkDir(dir string, counts map[string]int) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var gaps []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		gaps = append(gaps, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if isFlagDef(n) {
					counts[filepath.Base(dir)+".flags"]++
				}
				return true
			})
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(d, report)
					if d.Recv != nil && len(d.Recv.List) == 1 && d.Name.IsExported() {
						counts[pkg.Name+"."+receiverName(d.Recv.List[0].Type)]++
					}
				case *ast.GenDecl:
					checkGen(d, report)
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if it, ok := ts.Type.(*ast.InterfaceType); ok {
								counts[pkg.Name+"."+ts.Name.Name] += len(it.Methods.List)
							}
						}
					}
				}
			}
		}
	}
	return gaps, nil
}

// isFlagDef reports whether n defines a command-line flag: a call
// flag.<Type>("name", …) into the standard flag package's default set.
func isFlagDef(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	name, isLit := call.Args[0].(*ast.BasicLit)
	return ok && pkg.Name == "flag" && isLit && name.Kind == token.STRING
}

// checkFunc flags exported functions and exported methods on exported
// receiver types that have no doc comment.
func checkFunc(d *ast.FuncDecl, report func(token.Pos, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	name := d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv != "" && !ast.IsExported(recv) {
			return // method on an unexported type: not godoc surface
		}
		name = recv + "." + name
	}
	report(d.Pos(), "func "+name)
}

// receiverName unwraps a method receiver type expression to its base
// type name.
func receiverName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr: // generic receiver
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	}
	return ""
}

// checkGen flags undocumented exported types, constants, and variables.
// A doc comment on the grouped declaration covers its specs; a spec's
// own doc or trailing comment also counts.
func checkGen(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
			if s.Name.IsExported() {
				checkTypeBody(s.Name.Name, s.Type, report)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), strings.ToLower(d.Tok.String())+" "+n.Name)
				}
			}
		}
	}
}

// checkTypeBody flags undocumented exported struct fields and interface
// methods of the named exported type.
func checkTypeBody(typeName string, e ast.Expr, report func(token.Pos, string)) {
	switch t := e.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "field "+typeName+"."+n.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					report(n.Pos(), "interface method "+typeName+"."+n.Name)
				}
			}
		}
	}
}
