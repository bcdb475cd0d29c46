// Package callgraph builds the static call graph of one type-checked
// package: one node per function declaration, one edge per call site
// whose callee go/types can resolve statically (package functions and
// methods on concrete receiver types). It deliberately does not chase
// interface dispatch or function values: a call through a function
// value records nothing, and an interface method call is kept with
// Interface set, so shape-matchers (sink detection) still see it, but
// adds no edge.
//
// The graph also exposes its strongly connected components in
// bottom-up topological order (callees before callers), the order in
// which summary-based interprocedural analyses reach a fixpoint in one
// sweep outside of cycles.
package callgraph

import (
	"go/ast"
	"go/types"

	"cfpgrowth/internal/analysis"
)

// A Graph is the static call graph of one package's declared
// functions.
type Graph struct {
	// Nodes maps each declared function (and method) with a body to its
	// node.
	Nodes map[*types.Func]*Node
	// order preserves declaration order for deterministic iteration.
	order []*Node
}

// A Node is one declared function and its outgoing call sites.
type Node struct {
	// Fn is the declared function object.
	Fn *types.Func
	// Decl is its declaration (Body non-nil).
	Decl *ast.FuncDecl
	// Calls lists the statically resolved call sites in source order,
	// including calls to functions of other packages and calls appearing
	// inside nested function literals (marked InLit: they execute when
	// the literal runs, not necessarily when Fn does).
	Calls []Call
}

// A Call is one statically resolved call site.
type Call struct {
	// Callee is the resolved function or concrete method; for an
	// interface method call, the interface's method object.
	Callee *types.Func
	// Interface marks a call dispatched through an interface method:
	// Callee is the interface's method object, not the implementation.
	Interface bool
	// InLit marks a call site inside a nested function literal of the
	// declaring function.
	InLit bool
}

// Funcs yields the nodes in declaration order.
func (g *Graph) Funcs() []*Node { return g.order }

// New builds the call graph of the package represented by files+info.
func New(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{Nodes: make(map[*types.Func]*Node)}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			g.Nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	for _, n := range g.order {
		collectCalls(n, info)
	}
	return g
}

// collectCalls walks one declaration body, classifying every call
// site.
func collectCalls(n *Node, info *types.Info) {
	depth := 0
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				depth++
				walk(m.Body)
				depth--
				return false
			case *ast.CallExpr:
				classify(n, info, m, depth > 0)
			}
			return true
		})
	}
	walk(n.Decl.Body)
}

func classify(n *Node, info *types.Info, call *ast.CallExpr, inLit bool) {
	// Conversions and builtins are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return
		}
	}
	// A directly invoked literal is not dynamic: its body is walked and
	// its calls recorded (as InLit) by the same sweep.
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return // a call through a function value
	}
	n.Calls = append(n.Calls, Call{Callee: fn, Interface: isInterfaceMethod(fn), InLit: inLit})
}

// isInterfaceMethod reports whether fn is declared on an interface
// type (so a call through it is dynamic dispatch).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// SCCs returns the graph's strongly connected components over the
// intra-package, non-interface edges (the only edges that can form
// cycles a bottom-up summary pass must iterate), in bottom-up
// topological order: every component appears after the components it
// calls into. Within a component, nodes keep declaration order.
func (g *Graph) SCCs() [][]*Node {
	t := &tarjan{
		g:       g,
		index:   make(map[*Node]int),
		lowlink: make(map[*Node]int),
		onstack: make(map[*Node]bool),
	}
	for _, n := range g.order {
		if _, seen := t.index[n]; !seen {
			t.strongconnect(n)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — which for call graphs is exactly bottom-up
	// (callees first). Restore declaration order inside each.
	for _, c := range t.out {
		sortByDecl(c)
	}
	return t.out
}

// succs yields the distinct intra-package callee nodes of n (interface
// and cross-package callees have no node and are skipped).
func (g *Graph) succs(n *Node) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, c := range n.Calls {
		if c.Interface {
			continue
		}
		if m, ok := g.Nodes[c.Callee]; ok && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// tarjan is the classic iterative-enough recursion; package call
// graphs are shallow, so plain recursion is fine.
type tarjan struct {
	g       *Graph
	counter int
	index   map[*Node]int
	lowlink map[*Node]int
	onstack map[*Node]bool
	stack   []*Node
	out     [][]*Node
}

func (t *tarjan) strongconnect(v *Node) {
	t.index[v] = t.counter
	t.lowlink[v] = t.counter
	t.counter++
	t.stack = append(t.stack, v)
	t.onstack[v] = true
	for _, w := range t.g.succs(v) {
		if _, seen := t.index[w]; !seen {
			t.strongconnect(w)
			if t.lowlink[w] < t.lowlink[v] {
				t.lowlink[v] = t.lowlink[w]
			}
		} else if t.onstack[w] && t.index[w] < t.lowlink[v] {
			t.lowlink[v] = t.index[w]
		}
	}
	if t.lowlink[v] == t.index[v] {
		var comp []*Node
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onstack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		t.out = append(t.out, comp)
	}
}

func sortByDecl(c []*Node) {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j].Decl.Pos() < c[j-1].Decl.Pos(); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}
