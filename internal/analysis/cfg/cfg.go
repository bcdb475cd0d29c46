// Package cfg builds per-function control-flow graphs over go/ast
// bodies, the substrate of the path-sensitive analyzers in
// internal/analysis/... (sinkguard, obsguard, goroutinesafe, lockorder).
//
// The graph is deliberately small: basic blocks hold leaf statements
// and condition expressions in evaluation order; composite statements
// (if/for/range/switch/select) never appear as nodes themselves, so an
// analyzer may ast.Inspect every node of a block without ever walking
// into a nested body twice. Branch conditions are decomposed through
// && / || / ! down to atomic expressions, and every conditional edge
// carries the atomic condition plus the truth value it assumes — the
// hook that lets a dataflow transfer refine facts per branch ("on the
// true edge of n < len(b), n is in bounds").
//
// Function literals are opaque: a *ast.FuncLit appearing inside a node
// is part of that node, but its body contributes no blocks or edges to
// the enclosing graph. Analyzers that want to analyze literal bodies
// build a separate graph per literal.
//
// panic(...) and os.Exit terminate their block with no successor: a
// panicking path reaches neither the exit block nor any return, so
// all-paths properties ("the span is ended on every return path") are
// not polluted by assertion failures.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first. It may be empty.
	Entry *Block
	// Exit is the single synthetic exit block: every return statement
	// and the body's final fall-through edge lead here. It holds no
	// nodes.
	Exit *Block
	// Blocks lists every block, Entry and Exit included.
	Blocks []*Block
}

// A Block is one basic block: a maximal sequence of nodes executed
// strictly in order, followed by zero or more successor edges.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are leaf statements (assignments, calls, sends, defers,
	// returns, ...) and atomic condition expressions, in evaluation
	// order.
	Nodes []ast.Node
	// Succs are the outgoing edges.
	Succs []Edge
}

// An Edge is one control transfer between blocks.
type Edge struct {
	To *Block
	// Cond, when non-nil, is the atomic condition whose evaluation
	// chose this edge; Taken is the value it evaluated to.
	Cond  ast.Expr
	Taken bool
}

// RangeHead marks the loop-head position of a range statement in the
// block that re-tests the range on every iteration. It wraps the
// statement so analyzers can see the iteration variables without the
// graph embedding the loop body as a node.
type RangeHead struct{ Range *ast.RangeStmt }

// Pos implements ast.Node.
func (r RangeHead) Pos() token.Pos { return r.Range.Pos() }

// End implements ast.Node.
func (r RangeHead) End() token.Pos { return r.Range.TokPos }

// New builds the graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.block(body)
	b.jumpTo(b.g.Exit)
	// Unresolved gotos (labels in dead code) fall through to exit so
	// the graph stays well formed.
	for _, pg := range b.gotos {
		if lb, ok := b.labels[pg.label]; ok {
			pg.from.Succs = append(pg.from.Succs, Edge{To: lb})
		} else {
			pg.from.Succs = append(pg.from.Succs, Edge{To: b.g.Exit})
		}
	}
	return b.g
}

// ctx is one enclosing breakable/continuable construct.
type ctx struct {
	label    string
	brk      *Block // break target (loops, switch, select)
	cont     *Block // continue target (loops only)
	nextBody *Block // fallthrough target (switch case bodies only)
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g            *Graph
	cur          *Block // nil after a terminator until the next block starts
	stack        []ctx
	labels       map[string]*Block
	gotos        []pendingGoto
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// here returns the current block, starting a fresh (unreachable) one
// if the previous path was terminated.
func (b *builder) here() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.here()
	blk.Nodes = append(blk.Nodes, n)
}

// jumpTo ends the current block with an unconditional edge to blk.
func (b *builder) jumpTo(blk *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: blk})
	b.cur = nil
}

func (b *builder) block(s *ast.BlockStmt) {
	for _, st := range s.List {
		b.stmt(st)
	}
}

// takeLabel consumes the pending label of an enclosing labeled
// statement, so `outer: for { ... }` attaches "outer" to the loop ctx.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// find locates the break/continue target for an optional label.
func (b *builder) find(label string, cont bool) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		c := b.stack[i]
		if label != "" && c.label != label {
			continue
		}
		if cont {
			if c.cont != nil {
				return c.cont
			}
			continue
		}
		if c.brk != nil {
			return c.brk
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.block(s)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.jumpTo(lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		then, els, done := b.newBlock(), b.newBlock(), b.newBlock()
		b.cond(s.Cond, then, els)
		b.cur = then
		b.block(s.Body)
		b.jumpTo(done)
		b.cur = els
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.jumpTo(done)
		b.cur = done
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head, body, done := b.newBlock(), b.newBlock(), b.newBlock()
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		b.jumpTo(head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.jumpTo(body)
		}
		b.stack = append(b.stack, ctx{label: label, brk: done, cont: contTo})
		b.cur = body
		b.block(s.Body)
		b.stack = b.stack[:len(b.stack)-1]
		b.jumpTo(contTo)
		if post != nil {
			b.cur = post
			b.add(s.Post)
			b.jumpTo(head)
		}
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head, body, done := b.newBlock(), b.newBlock(), b.newBlock()
		b.jumpTo(head)
		b.cur = head
		b.add(RangeHead{Range: s})
		b.here().Succs = append(b.here().Succs, Edge{To: body}, Edge{To: done})
		b.cur = nil
		b.stack = append(b.stack, ctx{label: label, brk: done, cont: head})
		b.cur = body
		b.block(s.Body)
		b.stack = b.stack[:len(b.stack)-1]
		b.jumpTo(head)
		b.cur = done
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.here()
		done := b.newBlock()
		b.stack = append(b.stack, ctx{label: label, brk: done})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			body := b.newBlock()
			head.Succs = append(head.Succs, Edge{To: body})
			b.cur = body
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.jumpTo(done)
		}
		b.stack = b.stack[:len(b.stack)-1]
		if len(s.Body.List) == 0 {
			head.Succs = append(head.Succs, Edge{To: done})
		}
		b.cur = done
	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.g.Exit)
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.find(label, false); t != nil {
				b.jumpTo(t)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if t := b.find(label, true); t != nil {
				b.jumpTo(t)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if lb, ok := b.labels[label]; ok {
				b.jumpTo(lb)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: b.here(), label: label})
				b.cur = nil
			}
		case token.FALLTHROUGH:
			for i := len(b.stack) - 1; i >= 0; i-- {
				if b.stack[i].nextBody != nil {
					b.jumpTo(b.stack[i].nextBody)
					break
				}
			}
			b.cur = nil
		}
	default:
		// Leaf statement: assignments, declarations, expression
		// statements, sends, inc/dec, defer, go.
		b.add(s)
		if terminates(s) {
			b.cur = nil
		}
	}
}

// switchStmt lowers expression and type switches. A tag-less
// expression switch becomes an if/else chain with conditional edges;
// tagged and type switches get plain edges into each case body (the
// tag comparison is not an atomic boolean condition analyzers can
// refine on).
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	done := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	// Pre-create all body blocks so fallthrough can target the next.
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	condSwitch := tag == nil && assign == nil
	head := b.here()
	defaultIdx := -1
	for i, cc := range clauses {
		if cc.List == nil {
			defaultIdx = i
			continue
		}
		if condSwitch {
			// if c1 || c2 ... goto body[i] else next test.
			next := b.newBlock()
			for j, e := range cc.List {
				if j == len(cc.List)-1 {
					b.cond(e, bodies[i], next)
				} else {
					mid := b.newBlock()
					b.cond(e, bodies[i], mid)
					b.cur = mid
				}
			}
			b.cur = next
		} else {
			for _, e := range cc.List {
				b.add(e)
			}
			head.Succs = append(head.Succs, Edge{To: bodies[i]})
		}
	}
	if condSwitch {
		// Falling past every test reaches default (or done).
		if defaultIdx >= 0 {
			b.jumpTo(bodies[defaultIdx])
		} else {
			b.jumpTo(done)
		}
	} else {
		if defaultIdx >= 0 {
			head.Succs = append(head.Succs, Edge{To: bodies[defaultIdx]})
		} else {
			head.Succs = append(head.Succs, Edge{To: done})
		}
		b.cur = nil
	}
	for i, cc := range clauses {
		var next *Block
		if i+1 < len(bodies) {
			next = bodies[i+1]
		}
		b.stack = append(b.stack, ctx{label: label, brk: done, nextBody: next})
		b.cur = bodies[i]
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.stack = b.stack[:len(b.stack)-1]
		b.jumpTo(done)
	}
	b.cur = done
}

// cond lowers a branch condition, decomposing short-circuit operators
// and negation so every conditional edge carries an atomic condition.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	atom := ast.Unparen(e)
	b.add(atom)
	blk := b.here()
	blk.Succs = append(blk.Succs,
		Edge{To: t, Cond: atom, Taken: true},
		Edge{To: f, Cond: atom, Taken: false})
	b.cur = nil
}

// terminates reports whether a leaf statement never falls through:
// panic(...) or os.Exit(...). Such paths reach no successor, so
// all-return-paths properties ignore them.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
