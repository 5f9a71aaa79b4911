package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// describeCompositeKind labels a slice/map literal's kind for diagnostics.
func describeCompositeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// HotpathAlloc enforces the zero-allocation contract of functions annotated
// //triosim:hotpath (the engine dispatch loop, the event queue operations,
// the max-min rate solver). These run millions of times per simulated
// second; one heap allocation per call turns the "lightweight" in TrioSim's
// title into GC pressure that dominates the profile. The benchdiff gate
// catches regressions after the fact — this analyzer names the allocating
// expression at review time.
//
// Flagged inside an annotated function (and its nested literals):
//
//   - &T{...} and escaping composite literals (slice/map literals);
//   - make() and new();
//   - append() onto anything except a re-sliced backing array (x[:0] — the
//     free-list / reuse idiom) — append may grow and allocate;
//   - function literals (closure environments allocate);
//   - interface boxing: a concrete-typed argument passed to an interface
//     parameter allocates when the value escapes.
//
// Amortized or cold-path allocations inside hot functions are real and
// sometimes correct (error paths, first-call growth): suppress those with
// //triosim:nolint hotpath-alloc -- <why it is amortized/cold>.
var HotpathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc: "flag allocation sites (composite literals, make/new, growing " +
		"append, closures, interface boxing) in //triosim:hotpath functions",
	Run: func(pass *Pass) {
		for _, file := range pass.Files {
			for _, fd := range hotpathFuncs(file) {
				if fd.Body != nil {
					checkHotpathBody(pass, fd.Body)
				}
			}
		}
	},
}

// checkHotpathBody reports every allocation site in one annotated body.
func checkHotpathBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op != token.AND {
				return true
			}
			if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
				pass.Reportf("hotpath-alloc", node.Pos(),
					"&T{...} in a //triosim:hotpath function escapes to the "+
						"heap; reuse a pooled object")
				return false
			}
		case *ast.CompositeLit:
			// Plain struct literals are stack values; only literals that
			// carry a backing store (slices, maps) allocate per evaluation.
			tv, ok := pass.Info.Types[node]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf("hotpath-alloc", node.Pos(),
					"%s literal in a //triosim:hotpath function allocates "+
						"its backing store; hoist it or reuse a buffer",
					describeCompositeKind(tv.Type))
				return false // don't re-report nested literals
			}
		case *ast.FuncLit:
			pass.Reportf("hotpath-alloc", node.Pos(),
				"function literal in a //triosim:hotpath function; closures "+
					"allocate their environment — use a method value bound "+
					"once at construction")
			// Still scan the closure body: it runs on the hot path too.
			return true
		case *ast.CallExpr:
			checkHotpathCall(pass, node)
		}
		return true
	})
}

// checkHotpathCall classifies one call inside a hot function.
func checkHotpathCall(pass *Pass, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				pass.Reportf("hotpath-alloc", call.Pos(),
					"%s() in a //triosim:hotpath function; allocate once at "+
						"construction and reuse", id.Name)
			case "append":
				if len(call.Args) > 0 && isResliceReuse(call.Args[0]) {
					return // append(x[:0], ...) — the reuse idiom
				}
				pass.Reportf("hotpath-alloc", call.Pos(),
					"append() in a //triosim:hotpath function may grow the "+
						"backing array; size it up front or append onto a "+
						"re-sliced buffer (buf[:0])")
			}
			return
		}
	}
	checkInterfaceBoxing(pass, call)
}

// isResliceReuse reports whether the expression is a re-slice like x[:0] or
// x[:n] — appending onto it reuses the existing backing array until cap.
func isResliceReuse(expr ast.Expr) bool {
	_, ok := ast.Unparen(expr).(*ast.SliceExpr)
	return ok
}

// checkInterfaceBoxing flags concrete-typed arguments passed to interface
// parameters: the conversion boxes the value on the heap when it escapes.
// Reported once per call (the first boxing argument) to keep the signal
// readable.
func checkInterfaceBoxing(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue // a spread slice arg (f(xs...)) does not box
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type.Underlying()) {
			continue // interface-to-interface: no box
		}
		if at.IsNil() {
			continue
		}
		if basicUntypedConstant(at) {
			continue // untyped constants to any-params are common & cheap
		}
		switch at.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: fits the iface data word, no box
		}
		pass.Reportf("hotpath-alloc", arg.Pos(),
			"concrete value converted to interface %s in a "+
				"//triosim:hotpath call; boxing allocates when the value "+
				"escapes — take the concrete type or preconvert once",
			pt.String())
		return
	}
}

// basicUntypedConstant reports whether the value is a constant (boxing a
// constant folds to a static descriptor in practice).
func basicUntypedConstant(tv types.TypeAndValue) bool {
	return tv.Value != nil
}
