package bayeslsh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedAPI pins the root package's exported surface: every
// exported function, method, type, struct field, interface method,
// constant and variable of the non-test files, with its signature and
// no doc text, one per line in sorted order. A change to the public API
// shows up as a diff of testdata/api.txt; regenerate it with -update
// when the change is deliberate.
func TestExportedAPI(t *testing.T) {
	got := strings.Join(exportedAPI(t), "\n") + "\n"
	golden := filepath.Join("testdata", "api.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range w {
			if !slices.Contains(g, l) {
				t.Errorf("removed: %s", l)
			}
		}
		for _, l := range g {
			if !slices.Contains(w, l) {
				t.Errorf("added: %s", l)
			}
		}
		t.Errorf("exported API differs from %s (run with -update if deliberate)", golden)
	}
}

// exportedAPI lists the exported declarations of the package's
// non-test files, sorted.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				lines = append(lines, funcAPI(d)...)
			case *ast.GenDecl:
				lines = append(lines, genAPI(d)...)
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// funcAPI renders an exported function, or an exported method of an
// exported type, as "func (*T) Name(params) results".
func funcAPI(d *ast.FuncDecl) []string {
	if !d.Name.IsExported() {
		return nil
	}
	sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
	if d.Recv == nil {
		return []string{"func " + d.Name.Name + sig}
	}
	recv := types.ExprString(d.Recv.List[0].Type)
	base := strings.TrimPrefix(recv, "*")
	if i := strings.IndexByte(base, '['); i >= 0 {
		base = base[:i]
	}
	if !ast.IsExported(base) {
		return nil
	}
	return []string{"func (" + recv + ") " + d.Name.Name + sig}
}

// genAPI renders a declaration group's exported types (with their
// exported fields and interface methods), constants and variables.
// Constants carry their group's implicit type, as the compiler reads
// them.
func genAPI(d *ast.GenDecl) []string {
	var lines []string
	var implicit ast.Expr
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			lines = append(lines, typeAPI(s)...)
		case *ast.ValueSpec:
			typ := s.Type
			if d.Tok == token.CONST {
				if typ != nil || len(s.Values) > 0 {
					implicit = typ
				}
				typ = implicit
			}
			for i, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				l := d.Tok.String() + " " + n.Name
				if typ != nil {
					l += " " + types.ExprString(typ)
				}
				if d.Tok == token.CONST && i < len(s.Values) {
					l += " = " + types.ExprString(s.Values[i])
				}
				lines = append(lines, l)
			}
		}
	}
	return lines
}

// typeAPI renders one exported type spec: structs and interfaces as a
// header line plus one line per exported field or method, every other
// type (aliases included) on one line.
func typeAPI(s *ast.TypeSpec) []string {
	name := s.Name.Name
	alias := " "
	if s.Assign.IsValid() {
		alias = " = "
	}
	switch u := s.Type.(type) {
	case *ast.StructType:
		lines := []string{"type " + name + " struct"}
		for _, f := range u.Fields.List {
			typ := types.ExprString(f.Type)
			if len(f.Names) == 0 {
				if ast.IsExported(strings.TrimPrefix(typ, "*")) {
					lines = append(lines, "field "+name+"."+typ+" (embedded)")
				}
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					lines = append(lines, "field "+name+"."+n.Name+" "+typ)
				}
			}
		}
		return lines
	case *ast.InterfaceType:
		lines := []string{"type " + name + " interface"}
		for _, m := range u.Methods.List {
			for _, n := range m.Names {
				if n.IsExported() {
					lines = append(lines, "method "+name+"."+n.Name+strings.TrimPrefix(types.ExprString(m.Type), "func"))
				}
			}
		}
		return lines
	default:
		return []string{"type " + name + alias + types.ExprString(s.Type)}
	}
}
