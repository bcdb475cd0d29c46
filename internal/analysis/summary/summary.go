// Package summary computes an interprocedural effect summary per
// declared function and publishes it as a fact, so downstream
// analyzers compose across function and package boundaries instead of
// pattern-matching inside a single body.
//
// The computation is bottom-up over the package call graph
// (internal/analysis/callgraph): strongly connected components in
// callees-first order, iterating each cycle to a fixpoint (the effect
// domain is finite and monotone). Calls into already-analyzed
// packages resolve through the fact store — the driver analyzes
// packages in dependency order, so a callee's summary is present
// before any caller is reached. Unresolved dynamic calls (function
// values, interface dispatch) are assumed effect-free, a documented
// unsoundness that keeps interface-typed sinks from drowning every
// caller in noise — sink emissions are matched structurally instead.
//
// The one effect domain is sink emission, read by sinkguard and
// lockorder: may the function emit a result (EmitsSink), directly or
// through a helper?
package summary

import (
	"go/types"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/callgraph"
)

// Effects is the per-function summary fact.
type Effects struct {
	// EmitsSink: may call a result-sink Emit, directly or via a callee.
	EmitsSink bool
}

// AFact marks Effects as a fact type.
func (*Effects) AFact() {}

// String renders the set effects ("emitsSink"), or "none"; used by
// tests.
func (e *Effects) String() string {
	if e.EmitsSink {
		return "emitsSink"
	}
	return "none"
}

// Analyzer computes and exports Effects for every declared function of
// the package. It reports nothing; it exists to be required.
var Analyzer = &analysis.Analyzer{
	Name: "summary",
	Doc: `computes per-function sink-emission summaries bottom-up over
the package call graph and publishes them as facts for sinkguard and
lockorder`,
	FactTypes: []analysis.Fact{new(Effects)},
	Run:       run,
}

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
				ne := compute(n, lookup)
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
func compute(n *callgraph.Node, lookup Lookup) *Effects {
	eff := &Effects{}
	for _, c := range n.Calls {
		fn := c.Callee
		if isSinkEmit(fn) {
			eff.EmitsSink = true
		}
		if c.Interface {
			continue
		}
		if ce := lookup(fn); ce != nil && ce.EmitsSink {
			eff.EmitsSink = true
		}
	}
	return eff
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
