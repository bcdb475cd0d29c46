package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/cfg"
	"cfpgrowth/internal/analysis/dataflow"
)

// This file is the ledger-token dataflow shared by the summary
// computation and the ledgerbalance analyzer: a forward analysis over
// one scope (a function body or a function literal body) that tracks
// outstanding modeled-byte charges as tokens.
//
// A token is pushed by a direct charge (mine.Control.Charge,
// MemTracker.Alloc, obs.Recorder.Alloc — any single-int64 method named
// Alloc/Charge on a mine or obs type) or by a call to a function whose
// Effects summary says it hands a net charge to its caller
// (ChargesNet: acquireDecode and friends). A token is popped by a
// matching free — first by the exact text of the size expression
// (Alloc(treeBytes) ... Free(treeBytes)), then by object overlap
// (Alloc(d.Bytes()) ... a release helper taking d), and for
// callee-acquired tokens by a free on the same tracker. Deferred frees
// and deferred release-helpers apply at every exit.
//
// The analysis also tracks which obs spans are open (must-set) so that
// callers can enforce the PR-6 attribution rule: inside a function
// that starts spans, a positive charge must execute while a span is
// open, or the charged bytes vanish from every phase's bytes_delta.

const (
	minePath = "cfpgrowth/internal/mine"
	obsPath  = "cfpgrowth/internal/obs"
)

// A Token is one outstanding ledger charge.
type Token struct {
	// Pos is the charge site (the Alloc/Charge call, or the call to the
	// acquiring callee).
	Pos token.Pos
	// Key is the normalized text of the size expression, or of the whole
	// call for callee-acquired tokens.
	Key string
	// Objs are the variables tied to the token: those mentioned in the
	// size expression, the assigned result of an acquiring call, or the
	// arguments of one.
	Objs map[types.Object]bool
	// FromCallee marks a token pushed by a ChargesNet callee summary
	// rather than a direct charge.
	FromCallee bool
	// Err, for a callee-acquired token, is the variable the call's error
	// result is assigned to: by the (value, error) convention a failed
	// acquire charged nothing, so the token is dropped on the branch
	// where Err is known non-nil.
	Err types.Object
}

// A Leak is a token still outstanding at scope exit on some path.
type Leak struct {
	Tok Token
	// AllPaths reports whether the token is outstanding on every return
	// path (a charge wrapper or acquire shape, absolved into the
	// ChargesNet effect) as opposed to only some (a genuine
	// missing-release path).
	AllPaths bool
	// Returned reports whether a variable tied to the token is returned
	// on some path: ownership moves to the caller.
	Returned bool
}

// A Bare is one positive charge executed while no obs span was open,
// inside a scope that starts spans of its own (the PR-6 bug class).
type Bare struct {
	Pos token.Pos
	// Via is the callee whose summary carries the charge when the
	// charge is not a direct Alloc/Charge call at Pos.
	Via *types.Func
}

// ScopeInfo is the solved ledger analysis of one scope.
type ScopeInfo struct {
	// Leaks lists tokens outstanding at exit, deferred frees applied.
	Leaks []Leak
	// Bares lists uncovered charges; empty unless SpanUsing.
	Bares []Bare
	// SpanUsing reports whether the scope itself starts an obs span.
	SpanUsing bool
	// Charges reports a positive charge (direct or via a Charges
	// callee) at a point with no open span — the obligation a span-using
	// caller must cover.
	Charges bool
	// Releases reports a free not matched by any local token: the scope
	// balances a charge held by its caller.
	Releases bool
	// ExitReached is false for scopes that never return normally.
	ExitReached bool
}

// Lookup resolves the Effects summary of a callee, or nil when none is
// known (unanalyzed package, interface method, ⊤).
type Lookup func(*types.Func) *Effects

// ledgerState is the per-path dataflow state.
type ledgerState struct {
	may      map[token.Pos]*Token // outstanding on some path to here
	must     map[token.Pos]bool   // outstanding on every path to here
	returned map[token.Pos]bool   // tied variable returned on some path
	spans    map[types.Object]bool
	defObjs  map[types.Object]bool // deferred frees: released objects
	defKeys  map[string]bool       // deferred frees: released keys
}

type ledgerProblem struct {
	info      *types.Info
	lookup    Lookup
	spanUsing bool
	// bares accumulates uncovered charges as a side effect of Transfer;
	// dataflow may visit a block several times, so sites are deduped.
	bares map[token.Pos]*Bare
	// unmatched accumulates frees that popped nothing.
	unmatched map[token.Pos]bool
	// markCharges records an uncovered positive charge (→ Charges).
	markCharges bool
}

func (p *ledgerProblem) Entry() ledgerState {
	return ledgerState{
		may:      map[token.Pos]*Token{},
		must:     map[token.Pos]bool{},
		returned: map[token.Pos]bool{},
		spans:    map[types.Object]bool{},
		defObjs:  map[types.Object]bool{},
		defKeys:  map[string]bool{},
	}
}

func (p *ledgerProblem) Clone(s ledgerState) ledgerState {
	c := ledgerState{
		may:      make(map[token.Pos]*Token, len(s.may)),
		must:     make(map[token.Pos]bool, len(s.must)),
		returned: make(map[token.Pos]bool, len(s.returned)),
		spans:    make(map[types.Object]bool, len(s.spans)),
		defObjs:  make(map[types.Object]bool, len(s.defObjs)),
		defKeys:  make(map[string]bool, len(s.defKeys)),
	}
	for k, v := range s.may {
		c.may[k] = v
	}
	for k := range s.must {
		c.must[k] = true
	}
	for k := range s.returned {
		c.returned[k] = true
	}
	for k := range s.spans {
		c.spans[k] = true
	}
	for k := range s.defObjs {
		c.defObjs[k] = true
	}
	for k := range s.defKeys {
		c.defKeys[k] = true
	}
	return c
}

func (p *ledgerProblem) Join(a, b ledgerState) ledgerState {
	j := p.Clone(a)
	for k, v := range b.may {
		j.may[k] = v
	}
	for k := range j.must {
		if !b.must[k] {
			delete(j.must, k)
		}
	}
	for k := range b.returned {
		j.returned[k] = true
	}
	for k := range j.spans {
		if !b.spans[k] {
			delete(j.spans, k)
		}
	}
	for k := range j.defObjs {
		if !b.defObjs[k] {
			delete(j.defObjs, k)
		}
	}
	for k := range j.defKeys {
		if !b.defKeys[k] {
			delete(j.defKeys, k)
		}
	}
	return j
}

func (p *ledgerProblem) Equal(a, b ledgerState) bool {
	if len(a.may) != len(b.may) || len(a.must) != len(b.must) ||
		len(a.returned) != len(b.returned) || len(a.spans) != len(b.spans) ||
		len(a.defObjs) != len(b.defObjs) || len(a.defKeys) != len(b.defKeys) {
		return false
	}
	for k := range a.may {
		if _, ok := b.may[k]; !ok {
			return false
		}
	}
	for k := range a.must {
		if !b.must[k] {
			return false
		}
	}
	for k := range a.returned {
		if !b.returned[k] {
			return false
		}
	}
	for k := range a.spans {
		if !b.spans[k] {
			return false
		}
	}
	for k := range a.defObjs {
		if !b.defObjs[k] {
			return false
		}
	}
	for k := range a.defKeys {
		if !b.defKeys[k] {
			return false
		}
	}
	return true
}

// Refine drops callee-acquired tokens on the branch where their
// acquiring call's error result is known non-nil (err != nil taken, or
// err == nil not taken).
func (p *ledgerProblem) Refine(s ledgerState, cond ast.Expr, taken bool) ledgerState {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) || (be.Op == token.NEQ) != taken {
		return s
	}
	x := be.X
	if p.info.Types[x].IsNil() {
		x = be.Y
	} else if !p.info.Types[be.Y].IsNil() {
		return s
	}
	if obj := identObj(p.info, x); obj != nil {
		for pos, tok := range s.may {
			if tok.Err == obj {
				delete(s.may, pos)
				delete(s.must, pos)
			}
		}
	}
	return s
}

// Transfer mutates and returns s (the solver hands it a private copy).
func (p *ledgerProblem) Transfer(s ledgerState, n ast.Node) ledgerState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			var lhs ast.Expr
			if len(n.Lhs) == len(n.Rhs) {
				lhs = n.Lhs[i]
			}
			p.expr(s, rhs, lhs)
		}
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			p.bindResults(s, n.Rhs[0], n.Lhs)
		}
		// A span variable overwritten by a non-Start value stops being
		// open (it can no longer be ended).
		for i, lhs := range n.Lhs {
			if obj := identObj(p.info, lhs); obj != nil && s.spans[obj] {
				if i >= len(n.Rhs) || startCall(p.info, n.Rhs[i]) == nil {
					delete(s.spans, obj)
				}
			}
		}
	case *ast.DeferStmt:
		p.deferCall(s, n.Call)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			p.expr(s, r, nil)
		}
		// Deferred frees run on this path's unwind: discharge them at
		// the return, per path, so a token and its defer stay correlated
		// instead of being torn apart by the exit-block join with paths
		// that returned before the defer was registered.
		applyDefers(s)
		for _, r := range n.Results {
			for _, obj := range varsIn(p.info, r) {
				for pos, tok := range s.may {
					if tok.Objs[obj] {
						s.returned[pos] = true
					}
				}
			}
		}
	default:
		p.walk(s, n)
	}
	return s
}

// walk applies every call in evaluation position inside n.
func (p *ledgerProblem) walk(s ledgerState, n ast.Node) {
	dataflow.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			p.call(s, call, nil)
			return false // call handles its own argument subtree
		}
		return true
	})
}

// bindResults ties the token a multi-value acquiring call just pushed
// to its first result, the acquired value, and records the variable its
// error result is assigned to as the token's Err guard.
func (p *ledgerProblem) bindResults(s ledgerState, rhs ast.Expr, lhs []ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	tok := s.may[call.Pos()]
	if tok == nil || !tok.FromCallee {
		return
	}
	if obj := identObj(p.info, lhs[0]); obj != nil {
		tok.Objs[obj] = true
	}
	if obj := identObj(p.info, lhs[len(lhs)-1]); obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
		tok.Err = obj
	}
}

// expr applies one RHS expression, binding acquired tokens to lhs.
func (p *ledgerProblem) expr(s ledgerState, rhs ast.Expr, lhs ast.Expr) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		p.call(s, call, lhs)
		return
	}
	p.walk(s, rhs)
}

// call applies one call site: span open/close, direct charges and
// frees, then callee-summary effects. lhs, when non-nil, is the
// expression the call's (single) result is assigned to.
func (p *ledgerProblem) call(s ledgerState, call *ast.CallExpr, lhs ast.Expr) {
	// Nested calls in arguments evaluate first.
	for _, a := range call.Args {
		p.walk(s, a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		p.walk(s, sel.X)
	}

	info := p.info
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	if isRecorderStart(fn) {
		if obj := identObj(info, lhs); obj != nil {
			s.spans[obj] = true
		}
		return
	}
	if isSpanEnd(fn) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := identObj(info, sel.X); obj != nil {
				delete(s.spans, obj)
			}
		}
		return
	}
	switch op, arg := ledgerOp(info, call); op {
	case opCharge:
		p.charge(s, call.Pos(), nil)
		tok := &Token{Pos: call.Pos(), Key: types.ExprString(arg), Objs: objSet(info, arg)}
		s.may[tok.Pos] = tok
		s.must[tok.Pos] = true
		return
	case opFree:
		p.free(s, call, arg)
		return
	}
	eff := p.lookup(fn)
	if eff == nil {
		return
	}
	if eff.Releases {
		p.popByArgs(s, call)
	}
	if eff.Charges {
		p.charge(s, call.Pos(), fn)
	}
	if eff.ChargesNet {
		objs := map[types.Object]bool{}
		if obj := identObj(info, lhs); obj != nil {
			objs[obj] = true
		} else {
			for _, a := range call.Args {
				for _, o := range varsIn(info, a) {
					objs[o] = true
				}
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				for _, o := range varsIn(info, sel.X) {
					objs[o] = true
				}
			}
		}
		tok := &Token{Pos: call.Pos(), Key: types.ExprString(call), Objs: objs, FromCallee: true}
		s.may[tok.Pos] = tok
		s.must[tok.Pos] = true
	}
}

// charge records a positive charge at pos; when the scope is
// span-using and no span is open on this path, it is a bare charge.
func (p *ledgerProblem) charge(s ledgerState, pos token.Pos, via *types.Func) {
	if p.spanUsing && len(s.spans) == 0 {
		if _, ok := p.bares[pos]; !ok {
			p.bares[pos] = &Bare{Pos: pos, Via: via}
		}
	}
	if !p.spanUsing || len(s.spans) == 0 {
		p.markCharges = true
	}
}

// free pops tokens matched by a direct Free/Release call.
func (p *ledgerProblem) free(s ledgerState, call *ast.CallExpr, arg ast.Expr) {
	key := types.ExprString(arg)
	if popKey(s, key) {
		return
	}
	argObjs := objSet(p.info, arg)
	if popObjs(s, argObjs, false) {
		return
	}
	// A callee-acquired token is released by any free on a tracker the
	// acquiring call could see.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if popObjs(s, objSet(p.info, sel.X), true) {
			return
		}
	}
	p.unmatched[call.Pos()] = true
}

// popByArgs pops tokens tied to any variable appearing in the call's
// arguments or receiver (the release-helper shape: releaseDecode(d)).
func (p *ledgerProblem) popByArgs(s ledgerState, call *ast.CallExpr) {
	objs := map[types.Object]bool{}
	for _, a := range call.Args {
		for _, o := range varsIn(p.info, a) {
			objs[o] = true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		for _, o := range varsIn(p.info, sel.X) {
			objs[o] = true
		}
	}
	popObjs(s, objs, false)
}

func popKey(s ledgerState, key string) bool {
	hit := false
	for pos, tok := range s.may {
		if tok.Key == key {
			delete(s.may, pos)
			delete(s.must, pos)
			hit = true
		}
	}
	return hit
}

// popObjs pops tokens whose object set intersects objs;
// fromCalleeOnly restricts to callee-acquired tokens (the slack
// tracker-receiver match must not eat precisely keyed direct tokens).
func popObjs(s ledgerState, objs map[types.Object]bool, fromCalleeOnly bool) bool {
	hit := false
	for pos, tok := range s.may {
		if fromCalleeOnly && !tok.FromCallee {
			continue
		}
		for o := range objs {
			if tok.Objs[o] {
				delete(s.may, pos)
				delete(s.must, pos)
				hit = true
				break
			}
		}
	}
	return hit
}

// deferCall models a deferred call: frees and release-helpers apply at
// every exit of the scope; a deferred closure is scanned for the same.
func (p *ledgerProblem) deferCall(s ledgerState, call *ast.CallExpr) {
	info := p.info
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				p.deferCall(s, c)
			}
			return true
		})
		return
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	if op, arg := ledgerOp(info, call); op == opFree {
		s.defKeys[types.ExprString(arg)] = true
		for _, o := range varsIn(info, arg) {
			s.defObjs[o] = true
		}
		return
	}
	if eff := p.lookup(fn); eff != nil && eff.Releases {
		for _, a := range call.Args {
			for _, o := range varsIn(info, a) {
				s.defObjs[o] = true
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			for _, o := range varsIn(info, sel.X) {
				s.defObjs[o] = true
			}
		}
	}
}

// AnalyzeLedger solves the ledger analysis of one scope. body is a
// function (or literal) body; lookup resolves callee summaries and may
// be nil early in a bottom-up pass.
func AnalyzeLedger(info *types.Info, body *ast.BlockStmt, lookup Lookup) *ScopeInfo {
	if lookup == nil {
		lookup = func(*types.Func) *Effects { return nil }
	}
	prob := &ledgerProblem{
		info:      info,
		lookup:    lookup,
		spanUsing: usesSpans(info, body),
		bares:     map[token.Pos]*Bare{},
		unmatched: map[token.Pos]bool{},
	}
	g := cfg.New(body)
	res := dataflow.Forward[ledgerState](g, prob)

	out := &ScopeInfo{
		SpanUsing:   prob.spanUsing,
		Charges:     prob.markCharges,
		Releases:    len(prob.unmatched) > 0,
		ExitReached: res.ExitReached,
	}
	for _, b := range prob.bares {
		out.Bares = append(out.Bares, *b)
	}
	if !res.ExitReached {
		return out
	}
	// Explicit returns discharged their defers in Transfer; the final
	// fall-through edge has no return statement, so apply its deferred
	// frees here.
	exit := prob.Clone(res.Exit)
	applyDefers(exit)
	for pos, tok := range exit.may {
		out.Leaks = append(out.Leaks, Leak{
			Tok:      *tok,
			AllPaths: exit.must[pos],
			Returned: exit.returned[pos],
		})
	}
	return out
}

// applyDefers pops every token discharged by the deferred frees
// registered on the current path.
func applyDefers(s ledgerState) {
	for pos, tok := range s.may {
		discharged := s.defKeys[tok.Key]
		if !discharged {
			for o := range tok.Objs {
				if s.defObjs[o] {
					discharged = true
					break
				}
			}
		}
		if discharged {
			delete(s.may, pos)
			delete(s.must, pos)
		}
	}
}

// usesSpans reports whether the scope lexically contains a Start call
// of its own (nested literal bodies are separate scopes).
func usesSpans(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if found {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok && n != root {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := analysis.Callee(info, call); fn != nil && isRecorderStart(fn) {
					found = true
					return false
				}
			}
			return true
		})
	}
	walk(body)
	return found
}

// --- call-shape recognition ---

const (
	opNone = iota
	opCharge
	opFree
)

// ledgerOp classifies a call as a ledger charge or free: a method
// named Alloc/Charge (charge) or Free/Release (free) with exactly one
// int64 parameter and no results, declared on a type (or interface) of
// internal/mine or internal/obs.
func ledgerOp(info *types.Info, call *ast.CallExpr) (int, ast.Expr) {
	fn := analysis.Callee(info, call)
	if fn == nil || len(call.Args) != 1 {
		return opNone, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return opNone, nil
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Int64 {
		return opNone, nil
	}
	if pkg := fn.Pkg(); pkg == nil || (pkg.Path() != minePath && pkg.Path() != obsPath) {
		return opNone, nil
	}
	switch fn.Name() {
	case "Alloc", "Charge":
		return opCharge, call.Args[0]
	case "Free", "Release":
		return opFree, call.Args[0]
	}
	return opNone, nil
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

// varsIn collects the variable objects named anywhere in e.
func varsIn(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

func objSet(info *types.Info, e ast.Expr) map[types.Object]bool {
	m := map[types.Object]bool{}
	for _, o := range varsIn(info, e) {
		m[o] = true
	}
	return m
}

// startCall returns e as a (*obs.Recorder).Start call, or nil.
func startCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fn := analysis.Callee(info, call); fn != nil && isRecorderStart(fn) {
		return call
	}
	return nil
}

func isRecorderStart(fn *types.Func) bool {
	return fn.Name() == "Start" && hasRecv(fn, obsPath, "Recorder")
}

func isSpanEnd(fn *types.Func) bool {
	return fn.Name() == "End" && hasRecv(fn, obsPath, "Span")
}

func hasRecv(fn *types.Func, pkgPath, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}
