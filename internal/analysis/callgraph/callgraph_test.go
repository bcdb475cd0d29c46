package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"cfpgrowth/internal/analysis"
)

const src = `package p

type T struct{ n int }

func (t *T) bump() { t.n++ }

type Doer interface{ Do() }

func leaf() int { return 1 }

func mid(t *T) int {
	t.bump()
	return leaf()
}

func top(t *T, d Doer, f func()) int {
	d.Do()     // interface dispatch: dynamic
	f()        // function value: dynamic
	go func() {
		leaf() // call inside a literal
	}()
	return mid(t) + len("x") // len is a builtin, not an edge
}

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`

func load(t *testing.T) (*Graph, map[string]*Node) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	g := New([]*ast.File{f}, info)
	byName := map[string]*Node{}
	for _, n := range g.Funcs() {
		byName[n.Fn.Name()] = n
	}
	return g, byName
}

func calleeNames(n *Node, inLit bool) []string {
	var out []string
	for _, c := range n.Calls {
		if c.InLit == inLit {
			out = append(out, c.Callee.Name())
		}
	}
	return out
}

func TestEdges(t *testing.T) {
	_, byName := load(t)
	mid := byName["mid"]
	got := calleeNames(mid, false)
	want := []string{"bump", "leaf"}
	if len(got) != len(want) {
		t.Fatalf("mid calls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mid calls %v, want %v", got, want)
		}
	}
	for _, c := range mid.Calls {
		if c.Interface {
			t.Fatalf("mid has an interface call to %s, want none", c.Callee.Name())
		}
	}
}

func TestDynamicAndLits(t *testing.T) {
	_, byName := load(t)
	top := byName["top"]
	// f() has no static callee and records nothing; d.Do() keeps its
	// interface-method call for shape matchers. The other two calls are
	// leaf (in the literal) and mid.
	if len(top.Calls) != 3 {
		t.Fatalf("top records %d calls, want 3 (Do, leaf, mid)", len(top.Calls))
	}
	var iface int
	for _, c := range top.Calls {
		if c.Interface {
			iface++
			if c.Callee.Name() != "Do" {
				t.Fatalf("interface callee %s, want Do", c.Callee.Name())
			}
		}
	}
	if iface != 1 {
		t.Fatalf("top has %d interface calls, want 1", iface)
	}
	inLit := calleeNames(top, true)
	if len(inLit) != 1 || inLit[0] != "leaf" {
		t.Fatalf("top in-literal calls %v, want [leaf]", inLit)
	}
}

func TestSCCOrder(t *testing.T) {
	g, byName := load(t)
	sccs := g.SCCs()
	pos := map[*Node]int{}
	for i, comp := range sccs {
		for _, n := range comp {
			pos[n] = i
		}
	}
	// Bottom-up: callees before callers.
	if pos[byName["leaf"]] >= pos[byName["mid"]] {
		t.Fatalf("leaf (comp %d) should precede mid (comp %d)", pos[byName["leaf"]], pos[byName["mid"]])
	}
	if pos[byName["mid"]] >= pos[byName["top"]] {
		t.Fatalf("mid (comp %d) should precede top (comp %d)", pos[byName["mid"]], pos[byName["top"]])
	}
	// even/odd form one two-node component.
	if pos[byName["even"]] != pos[byName["odd"]] {
		t.Fatalf("even (comp %d) and odd (comp %d) should share a component", pos[byName["even"]], pos[byName["odd"]])
	}
	for _, comp := range sccs {
		if len(comp) == 2 {
			if comp[0].Fn.Name() != "even" || comp[1].Fn.Name() != "odd" {
				t.Fatalf("two-node component %s,%s; want even,odd", comp[0].Fn.Name(), comp[1].Fn.Name())
			}
		}
	}
}
