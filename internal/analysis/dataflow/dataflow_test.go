package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"cfpgrowth/internal/analysis/cfg"
)

func buildFunc(t *testing.T, src, name string) *cfg.Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return cfg.New(fd.Body)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// checked is a must-analysis: true iff check() was called on every
// path. It is the skeleton of sinkguard's lattice.
type checked struct{}

func (checked) Entry() bool { return false }
func (checked) Transfer(s bool, n ast.Node) bool {
	Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "check" {
				s = true
			}
		}
		return true
	})
	return s
}
func (checked) Refine(s bool, cond ast.Expr, taken bool) bool { return s }
func (checked) Join(a, b bool) bool                           { return a && b }
func (checked) Equal(a, b bool) bool                          { return a == b }
func (checked) Clone(s bool) bool                             { return s }

func solveChecked(t *testing.T, src, name string) *Result[bool] {
	t.Helper()
	return Forward[bool](buildFunc(t, src, name), checked{})
}

const checkSrc = `package p
func check() {}
func work()  {}

func allPaths(a bool) {
	if a {
		check()
	} else {
		check()
	}
	work()
}

func onePath(a bool) {
	if a {
		check()
	}
	work()
}

func beforeLoop(n int) {
	check()
	for i := 0; i < n; i++ {
		work()
	}
}

func inLoopBody(n int) {
	for i := 0; i < n; i++ {
		check()
	}
}
`

func TestMustAnalysisJoins(t *testing.T) {
	cases := []struct {
		fn   string
		want bool
	}{
		{"allPaths", true},
		{"onePath", false},
		{"beforeLoop", true},
		// The loop may run zero times, so the check is not guaranteed.
		{"inLoopBody", false},
	}
	for _, c := range cases {
		res := solveChecked(t, checkSrc, c.fn)
		if !res.ExitReached {
			t.Fatalf("%s: exit not reached", c.fn)
		}
		if res.Exit != c.want {
			t.Errorf("%s: exit checked=%v, want %v", c.fn, res.Exit, c.want)
		}
	}
}

// bounded is a branch-refined may-analysis over a single variable
// named "n": it is "bounded" after the true edge of `n < lim`, the
// shape of a sanitizer edge.
type bounded struct{}

func (bounded) Entry() bool                      { return false }
func (bounded) Transfer(s bool, n ast.Node) bool { return s }
func (bounded) Refine(s bool, cond ast.Expr, taken bool) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.LSS {
		return s
	}
	if id, ok := be.X.(*ast.Ident); ok && id.Name == "n" && taken {
		return true
	}
	return s
}
func (bounded) Join(a, b bool) bool  { return a && b }
func (bounded) Equal(a, b bool) bool { return a == b }
func (bounded) Clone(s bool) bool    { return s }

func TestEdgeRefinement(t *testing.T) {
	src := `package p
func f(n, lim int) {
	if n < lim {
		use(n)
	} else {
		use(n)
	}
}
func use(int) {}`
	g := buildFunc(t, src, "f")
	res := Forward[bool](g, bounded{})

	// Find the states before each use(n) call: the true-arm call must
	// see bounded=true, the else-arm bounded=false.
	var states []bool
	res.Iterate(g, bounded{}, func(n ast.Node, before bool) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
				states = append(states, before)
			}
		}
	})
	if len(states) != 2 {
		t.Fatalf("got %d use() sites, want 2", len(states))
	}
	if !(states[0] == true && states[1] == false) && !(states[0] == false && states[1] == true) {
		t.Errorf("want exactly one bounded use, got %v", states)
	}
}

func TestIterateSkipsUnreachable(t *testing.T) {
	src := `package p
func f() {
	return
	use(1)
}
func use(int) {}`
	g := buildFunc(t, src, "f")
	res := Forward[bool](g, bounded{})
	res.Iterate(g, bounded{}, func(n ast.Node, before bool) {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
					t.Error("Iterate visited unreachable use(1)")
				}
			}
		}
	})
}

func TestInspectSkipsFuncLitBodies(t *testing.T) {
	src := `package p
func f() {
	g := func() { inner() }
	outer()
	_ = g
}
func inner() {}
func outer() {}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	body := file.Decls[0].(*ast.FuncDecl).Body
	seen := map[string]bool{}
	for _, st := range body.List {
		Inspect(st, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				seen[id.Name] = true
			}
			return true
		})
	}
	if seen["inner"] {
		t.Error("Inspect descended into a FuncLit body")
	}
	if !seen["outer"] {
		t.Error("Inspect missed a top-level call")
	}
}
