// Package analysis is a minimal, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. It
// exists because this module is dependency-free by policy; the API is
// kept deliberately close to the upstream one (Analyzer.Name/Doc/Run,
// Pass.Fset/Files/Pkg/TypesInfo, Pass.Reportf) so the repo-specific
// analyzers under internal/analysis/... could be ported to the real
// framework by changing imports only.
//
// Differences from x/tools: no SuggestedFixes, Run returns only an
// error, and facts live in one in-memory FactStore per run (the
// single-Loader driver shares types.Object identities across packages,
// so no fact serialization is needed — see facts.go). Analyzers form a
// Requires DAG; the runner topologically sorts it so fact producers
// run before their consumers. Suppression is supported through line
// directives:
//
//	//cfplint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory; a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cfplint:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by cfplint -help: the
	// invariant the analyzer guards and why it matters.
	Doc string
	// Requires lists analyzers that must run first on each package
	// (typically fact producers). The runner expands and topologically
	// sorts the closure; cycles are an error.
	Requires []*Analyzer
	// FactTypes declares the fact types this analyzer exports or
	// imports, as pointers to zero values (e.g. new(FooFact)).
	// Undeclared fact use is a programming error and panics.
	FactTypes []Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to the single type-checked package it is
// being applied to.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *FactStore
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Uses resolves e (an identifier or selector expression, possibly
// parenthesized) to the object it refers to, or nil.
func Uses(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// Callee returns the called function or method of call, or nil for
// calls through function values, built-ins, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := Uses(info, call.Fun).(*types.Func)
	return fn
}

// WalkStack traverses root in depth-first order, invoking fn with each
// node and the stack of its ancestors (outermost first, not including
// n itself). It is the parent-aware variant of ast.Inspect that
// context-sensitive rules need.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// FuncDecls yields every function declaration with a body in the pass,
// the granularity at which path-sensitive rules (sinkguard)
// approximate "on the same path": a check anywhere
// earlier in the same declaration, including inside nested function
// literals, satisfies them.
func (p *Pass) FuncDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
