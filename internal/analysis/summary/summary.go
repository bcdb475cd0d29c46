// Package summary computes an interprocedural effect summary per
// declared function and publishes it as a fact, so downstream
// analyzers compose across function and package boundaries instead of
// pattern-matching inside a single body.
//
// The computation is bottom-up over the package call graph
// (internal/analysis/callgraph): strongly connected components in
// callees-first order, iterating each cycle to a fixpoint (all effect
// domains are finite and monotone). Calls into already-analyzed
// packages resolve through the fact store — the driver analyzes
// packages in dependency order, so a callee's summary is present
// before any caller is reached. Unresolved dynamic calls (function
// values, interface dispatch) are assumed effect-free, a documented
// unsoundness that keeps interface-typed sinks from drowning every
// caller in noise — sink emissions are matched structurally instead.
//
// Effect domains, chosen for the analyzers that consume them:
//
//   - index effects (varintbounds): which integer parameter slots does
//     it use as an index or slice bound without a bound check
//     (UnboundedIndex)?
//   - sink effects (sinkguard, lockorder): may it emit a result
//     (EmitsSink), directly or through a helper?
//
// Parameter slots: slot 0 is the receiver for methods, with parameters
// shifted by one; plain functions use parameter order directly.
// ArgExprs maps a call site's expressions to slots the same way.
package summary

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/callgraph"
)

// Effects is the per-function summary fact.
type Effects struct {
	// UnboundedIndex: bit i set when integer parameter slot i is used
	// as an index or slice bound, directly or via a callee, with no
	// comparison guarding it in the function.
	UnboundedIndex uint32
	// EmitsSink: may call a result-sink Emit, directly or via a callee.
	EmitsSink bool
}

// AFact marks Effects as a fact type.
func (*Effects) AFact() {}

// String renders the set effects compactly ("unbounded(0x2)
// emitsSink"), or "none"; used by tests.
func (e *Effects) String() string {
	var parts []string
	if e.UnboundedIndex != 0 {
		parts = append(parts, fmt.Sprintf("unbounded(%#x)", e.UnboundedIndex))
	}
	if e.EmitsSink {
		parts = append(parts, "emitsSink")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Analyzer computes and exports Effects for every declared function of
// the package. It reports nothing; it exists to be required.
var Analyzer = &analysis.Analyzer{
	Name: "summary",
	Doc: `computes per-function effect summaries (unchecked index slots,
sink emissions) bottom-up over the package call graph and publishes
them as facts for varintbounds, sinkguard and lockorder`,
	FactTypes: []analysis.Fact{new(Effects)},
	Run:       run,
}

// maxSlots caps the parameter bitmasks.
const maxSlots = 32

func run(pass *analysis.Pass) error {
	g := callgraph.New(pass.Files, pass.TypesInfo)
	local := make(map[*types.Func]*Effects)
	lookup := func(fn *types.Func) *Effects {
		if e, ok := local[fn]; ok {
			return e
		}
		var e Effects
		if pass.ImportObjectFact(fn, &e) {
			return &e
		}
		return nil
	}
	for _, comp := range g.SCCs() {
		for _, n := range comp {
			local[n.Fn] = &Effects{}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				ne := compute(pass, n, lookup)
				if *local[n.Fn] != *ne {
					local[n.Fn] = ne
					changed = true
				}
			}
		}
	}
	for fn, eff := range local {
		pass.ExportObjectFact(fn, eff)
	}
	return nil
}

// Lookuper returns a Lookup over the facts visible to pass; consumers
// that Require Analyzer use it to resolve callee summaries (same
// package and imported packages alike).
func Lookuper(pass *analysis.Pass) Lookup {
	return func(fn *types.Func) *Effects {
		if fn == nil {
			return nil
		}
		var e Effects
		if pass.ImportObjectFact(fn, &e) {
			return &e
		}
		return nil
	}
}

// Lookup resolves a callee's summary; nil when none is known.
type Lookup func(*types.Func) *Effects

// compute derives the effects of one declaration given the current
// summaries of everything it calls.
func compute(pass *analysis.Pass, n *callgraph.Node, lookup Lookup) *Effects {
	info := pass.TypesInfo
	eff := &Effects{}
	slots := paramSlots(info, n.Decl)

	// Direct unbounded index uses.
	bounded := comparedObjs(info, n.Decl.Body)
	unbounded := func(e ast.Expr) {
		if slot, ok := paramSlot(info, slots, e); ok && !bounded[identObj(info, e)] {
			eff.UnboundedIndex |= 1 << slot
		}
	}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IndexExpr:
			unbounded(m.Index)
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{m.Low, m.High, m.Max} {
				if b != nil {
					unbounded(b)
				}
			}
		}
		return true
	})

	// Call-mediated effects.
	for _, c := range n.Calls {
		fn := c.Callee
		if isSinkEmit(fn) {
			eff.EmitsSink = true
		}
		if c.Interface {
			continue
		}
		ce := lookup(fn)
		if ce == nil {
			continue
		}
		if ce.EmitsSink {
			eff.EmitsSink = true
		}
		for i, a := range ArgExprs(c.Site, fn) {
			if a != nil && i < maxSlots && ce.UnboundedIndex&(1<<i) != 0 {
				unbounded(a)
			}
		}
	}
	return eff
}

// paramSlots maps the declaration's receiver and parameter objects to
// slot indexes.
func paramSlots(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	slots := map[types.Object]int{}
	next := 0
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				next++
				continue
			}
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && next < maxSlots {
					slots[obj] = next
				}
				next++
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return slots
}

// ArgExprs returns the call's expressions by parameter slot for callee
// fn: the receiver expression first for methods, then the arguments.
// Entries may be nil (method values); variadic overflow arguments all
// map to the final slot's position or beyond and are simply appended.
func ArgExprs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	var out []ast.Expr
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	return append(out, call.Args...)
}

// paramSlot resolves a bare identifier naming a parameter to its slot.
func paramSlot(info *types.Info, slots map[types.Object]int, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	slot, ok := slots[info.Uses[id]]
	return slot, ok
}

// comparedObjs collects every variable appearing in a comparison —
// the (deliberately coarse) "a bound check exists" signal for
// UnboundedIndex.
func comparedObjs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !be.Op.IsOperator() {
			return true
		}
		switch be.Op.String() {
		case "<", "<=", ">", ">=", "==", "!=":
			for _, side := range []ast.Expr{be.X, be.Y} {
				if obj := identObj(info, side); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isSinkEmit reports whether fn is a result-sink emission: a method
// named Emit with signature func([]uint32, uint64) error, the shape of
// mine.Sink and every wrapper in the repo.
func isSinkEmit(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Emit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	p0, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b0, ok := p0.Elem().Underlying().(*types.Basic)
	if !ok || b0.Kind() != types.Uint32 {
		return false
	}
	b1, ok := sig.Params().At(1).Type().Underlying().(*types.Basic)
	if !ok || b1.Kind() != types.Uint64 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// identObj resolves e to the variable object it names, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
