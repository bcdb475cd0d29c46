// Package ledgerbalance guards the modeled-byte ledger, the paper's
// memory-efficiency claim made executable: every positive charge
// (mine.Control.Charge, MemTracker.Alloc, obs.Recorder.Alloc) must be
// balanced by a matching free on every return path, and must execute
// while the owning obs span is open so per-phase bytes_delta
// aggregates stay truthful (PR 6 shipped with every phase's delta
// silently zero because charges ran between spans).
//
// Both rules are interprocedural, built on the summary facts of
// internal/analysis/summary:
//
//   - Balance: charge tokens flow through the ledger dataflow
//     (summary.AnalyzeLedger). A call to an acquiring helper
//     (ChargesNet — acquireDecode and friends) pushes a token tied to
//     the assigned variable; a call to a releasing helper (Releases —
//     releaseDecode) pops the tokens tied to its arguments;
//     deferred frees apply at every exit. A token outstanding on only
//     SOME exit paths is a missing release on the others and is
//     reported at the charge. A token outstanding on ALL paths is a
//     deliberate shape — a tracker wrapper or an acquire constructor —
//     recorded in the caller-facing summary instead, so the obligation
//     is checked where it actually lands.
//
//   - Attribution: inside a function that starts obs spans, a positive
//     charge (direct, or hidden in a callee whose summary says
//     Charges) reached while no span is open is reported — the exact
//     PR-6 bug class.
//
// Function literals are independent scopes; a literal that starts no
// spans has no attribution obligation of its own.
package ledgerbalance

import (
	"go/ast"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/summary"
)

// Analyzer is the ledgerbalance rule. The driver scopes it to the
// mining packages that charge the ledger (internal/core, internal/pfp,
// internal/fptree, internal/algo); the ledger implementations
// themselves (internal/mine, internal/obs) are exempt — their
// wrapper methods are the vocabulary, not call sites.
var Analyzer = &analysis.Analyzer{
	Name: "ledgerbalance",
	Doc: `requires every modeled-byte ledger charge to be released on all
return paths (following callee summaries: acquire helpers push the
obligation to their caller, release helpers discharge it) and to
execute inside an open obs span in span-using functions, so budget
enforcement and per-phase bytes_delta reporting both stay truthful`,
	Requires:  []*analysis.Analyzer{summary.Analyzer},
	FactTypes: []analysis.Fact{new(summary.Effects)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	lookup := summary.Lookuper(pass)
	for _, fd := range pass.FuncDecls() {
		for _, body := range scopes(fd.Body) {
			check(pass, body, lookup)
		}
	}
	return nil
}

// scopes returns root plus the body of every nested function literal,
// each analyzed independently.
func scopes(root *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{root}
	ast.Inspect(root, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

func check(pass *analysis.Pass, body *ast.BlockStmt, lookup summary.Lookup) {
	li := summary.AnalyzeLedger(pass.TypesInfo, body, lookup)
	for _, l := range li.Leaks {
		if l.AllPaths || l.Returned {
			// Wrapper/acquire shape: the obligation moves to the caller
			// through the ChargesNet summary and is checked there.
			continue
		}
		if l.Tok.FromCallee {
			pass.Reportf(l.Tok.Pos, "ledger charge acquired by %s is not released on every return path (an early return skips the releasing call); release it on each path or defer the release", l.Tok.Key)
		} else {
			pass.Reportf(l.Tok.Pos, "ledger charge is not released on every return path (an early return skips the Free); call Free before each return or defer it")
		}
	}
	for _, b := range li.Bares {
		if b.Via != nil {
			pass.Reportf(b.Pos, "call to %s charges the ledger outside any open obs span, so the charged bytes vanish from every phase's bytes_delta; move the call inside the owning span", b.Via.Name())
		} else {
			pass.Reportf(b.Pos, "ledger charge executes outside any open obs span, so the charged bytes vanish from every phase's bytes_delta; move the charge inside the owning span")
		}
	}
}
