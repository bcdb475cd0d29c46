// Package allochot guards the allocation discipline of functions
// marked `//cfplint:hot` in their doc comment — the growth and
// conversion inner loops whose per-call allocations dominate the
// memory profile the paper's design exists to shrink. Three patterns
// are flagged inside a hot function:
//
//  1. fmt.* calls: formatting allocates (the format machinery boxes
//     every operand) and belongs outside the hot path.
//  2. Interface boxing: converting a concrete value to an interface
//     at a call argument, assignment, conversion, or return
//     allocates unless the value is pointer-shaped and escapes
//     anyway; hot paths keep values concrete.
//  3. Un-presized append in a loop: growing a slice declared with no
//     capacity (`var x []T`, `x := []T{}`) re-allocates log(n) times;
//     pre-size it with make(..., 0, n) outside the loop.
//
// The marker is a contract, not a heuristic: un-marked functions are
// never checked, and marking a function asserts its loops are hot
// enough that these allocations matter.
package allochot

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cfpgrowth/internal/analysis"
)

// Analyzer is the allochot rule.
var Analyzer = &analysis.Analyzer{
	Name: "allochot",
	Doc: `forbids fmt calls, interface boxing, and un-presized append
loops inside functions whose doc comment carries //cfplint:hot`,
	Run: run,
}

// marker is the doc-comment line that opts a function in.
const marker = "//cfplint:hot"

func run(pass *analysis.Pass) error {
	for _, fd := range pass.FuncDecls() {
		if !isHot(fd) {
			continue
		}
		checkHot(pass, fd)
	}
	return nil
}

func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == marker {
			return true
		}
	}
	return false
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	sig, _ := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	analysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, name)
		case *ast.AssignStmt:
			checkAssign(pass, fd, n, stack, name)
		case *ast.ReturnStmt:
			checkReturn(pass, sig, n, stack, name)
		case *ast.ValueSpec:
			checkValueSpec(pass, n, name)
		}
	})
}

// checkCall flags fmt calls, boxing at call arguments, and
// conversions to interface types.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, hot string) {
	// Conversion to an interface type: T(x) with interface T.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isBoxing(pass, call.Args[0], tv.Type) {
			reportBoxing(pass, call.Args[0], tv.Type, hot)
		}
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn != nil && strings.HasPrefix(fn.Name(), "assert") {
		// The debugchecks assertion layer: assert* calls sit behind a
		// constant-false gate in default builds, so the compiler
		// eliminates them, boxing and all.
		return
	}
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s call in hot function %s: formatting allocates on every call; hoist it out of the hot path",
			fn.Name(), hot)
		return // don't also report the boxing of each operand
	}
	if fn == nil {
		return // dynamic call or builtin: no parameter types to check
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			sl, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isBoxing(pass, arg, pt) {
			reportBoxing(pass, arg, pt, hot)
		}
	}
}

// checkAssign flags boxing on assignment and un-presized appends in
// loops.
func checkAssign(pass *analysis.Pass, fd *ast.FuncDecl, as *ast.AssignStmt, stack []ast.Node, hot string) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			lt := pass.TypesInfo.TypeOf(as.Lhs[i])
			if lt != nil && isBoxing(pass, as.Rhs[i], lt) {
				reportBoxing(pass, as.Rhs[i], lt, hot)
			}
		}
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !inLoop(stack) {
		return
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
		return
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || base.Name != lhs.Name {
		return // appending to a different slice: not the grow-in-place shape
	}
	obj := pass.TypesInfo.ObjectOf(lhs)
	if obj == nil {
		return
	}
	if declaredUnpresized(pass, fd, obj) {
		pass.Reportf(as.Pos(),
			"append grows %s inside this loop in hot function %s, but %s is declared without capacity: pre-size it with make(..., 0, n) outside the loop",
			lhs.Name, hot, lhs.Name)
	}
}

// checkReturn flags boxing into interface-typed results.
func checkReturn(pass *analysis.Pass, sig *types.Signature, ret *ast.ReturnStmt, stack []ast.Node, hot string) {
	// A return inside a function literal converts to the literal's
	// results, not the hot function's; literal bodies are still hot,
	// but their signatures differ — resolve against the innermost one.
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			if t, ok := pass.TypesInfo.TypeOf(lit.Type).(*types.Signature); ok {
				sig = t
			}
			break
		}
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		rt := sig.Results().At(i).Type()
		if isBoxing(pass, e, rt) {
			reportBoxing(pass, e, rt, hot)
		}
	}
}

// checkValueSpec flags `var x Iface = concrete`.
func checkValueSpec(pass *analysis.Pass, vs *ast.ValueSpec, hot string) {
	if vs.Type == nil {
		return
	}
	t := pass.TypesInfo.TypeOf(vs.Type)
	if t == nil {
		return
	}
	for _, v := range vs.Values {
		if isBoxing(pass, v, t) {
			reportBoxing(pass, v, t, hot)
		}
	}
}

// isBoxing reports whether storing expr into a destination of type dst
// allocates an interface box: dst is an interface, the value is
// concrete, and it is not the predeclared nil.
func isBoxing(pass *analysis.Pass, expr ast.Expr, dst types.Type) bool {
	if _, ok := dst.(*types.TypeParam); ok {
		return false
	}
	if !types.IsInterface(dst.Underlying()) {
		return false
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if _, ok := tv.Type.(*types.TypeParam); ok {
		return false
	}
	return !types.IsInterface(tv.Type.Underlying())
}

func reportBoxing(pass *analysis.Pass, expr ast.Expr, dst types.Type, hot string) {
	pass.Reportf(expr.Pos(),
		"%s is boxed into %s in hot function %s: the conversion allocates; keep hot-path values concrete",
		types.TypeString(pass.TypesInfo.TypeOf(expr), types.RelativeTo(pass.Pkg)),
		types.TypeString(dst, types.RelativeTo(pass.Pkg)), hot)
}

// inLoop reports whether the node whose ancestor stack is given sits
// inside a for or range statement (within the hot function: the stack
// is rooted at its body).
func inLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// declaredUnpresized reports whether obj is declared inside fd with no
// capacity: `var x []T` (no initializer) or an empty composite
// literal. A make of any shape, a non-empty literal, a parameter, or
// a declaration outside fd all count as the caller's business.
func declaredUnpresized(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	unpresized := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.ObjectOf(name) != obj {
					continue
				}
				if len(n.Values) == 0 {
					unpresized = true // var x []T
				} else if i < len(n.Values) {
					unpresized = isEmptyLiteralOrNil(pass, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.ObjectOf(id) != obj || i >= len(n.Rhs) {
					continue
				}
				unpresized = isEmptyLiteralOrNil(pass, n.Rhs[i])
			}
		}
		return true
	})
	return unpresized
}

func isEmptyLiteralOrNil(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.Ident:
		tv, ok := pass.TypesInfo.Types[e]
		return ok && tv.IsNil()
	case *ast.CallExpr:
		// A conversion like []T(nil) of the predeclared nil.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isEmptyLiteralOrNil(pass, e.Args[0])
		}
	}
	return false
}
