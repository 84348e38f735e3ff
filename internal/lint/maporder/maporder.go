// Package maporder flags map iteration whose body produces ordered output
// in determinism-critical packages.
//
// Go randomizes map iteration order per run. That is harmless when the
// body is commutative (counting, building another map, deleting), but the
// moment the body appends to a slice, accumulates floating point (where
// rounding makes addition order-visible), or writes a journal, an event
// ring, a gauge or RPC traffic, the iteration order leaks into output the
// determinism contract says must be byte-identical across runs. The fix is
// the sorted-key idiom: collect keys, sort, range over the slice. Appending
// keys and sorting the result immediately after the loop is recognized as
// exactly that idiom and not flagged.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dynamo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration that feeds ordered outputs (slice appends, float accumulation, journal/event-ring/gauge/RPC writes) in determinism-critical packages",
	Run:  run,
}

// orderedTelemetryMethods are the telemetry-package methods whose effect is
// order-sensitive: gauge Set (last write wins) and Add (float
// accumulation). The rule matches by method name, so a Counter.Add is
// flagged too; Counter Inc and Histogram Observe commute and are not.
var orderedTelemetryMethods = map[string]bool{
	"Add": true,
	"Set": true,
}

// orderedRPCMethods are rpc client entry points: issuing calls in map
// order reorders wire traffic and, with deterministic fault injection,
// changes which calls a scripted fault hits.
var orderedRPCMethods = map[string]bool{
	"Call": true,
	"Go":   true,
}

func run(pass *lint.Pass) {
	if !lint.Critical(pass.Pkg.Path()) {
		return
	}
	lint.WithStack(pass.Files, func(rs *ast.RangeStmt, stack []ast.Node) {
		if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return
		}
		if pass.InTestFile(rs.Pos()) {
			return
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, rs, stack, st)
			case *ast.CallExpr:
				checkEmitter(pass, st)
			}
			return true
		})
	})
}

func checkAssign(pass *lint.Pass, rs *ast.RangeStmt, stack []ast.Node, st *ast.AssignStmt) {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		lhs := st.Lhs[0]
		if !isFloat(pass.TypesInfo.TypeOf(lhs)) {
			return
		}
		if obj := rootObject(pass, lhs); obj != nil && declaredWithin(obj, rs) {
			return // per-iteration accumulator — order can't leak out
		}
		if keyedByRangeKey(pass, lhs, rs) {
			return // m[k] += v touches each key once — commutative
		}
		pass.Reportf(st.Pos(),
			"maporder: order-dependent float accumulation into %s while ranging over a map; iterate over sorted keys",
			types.ExprString(lhs))
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(st.Lhs) {
				continue
			}
			lhs := st.Lhs[i]
			obj := rootObject(pass, lhs)
			if obj != nil && declaredWithin(obj, rs) {
				continue
			}
			if sortedAfter(pass, rs, stack, obj) {
				continue // collect-then-sort idiom
			}
			pass.Reportf(st.Pos(),
				"maporder: appending to %s in map-iteration order; iterate over sorted keys or sort the slice immediately after the loop",
				types.ExprString(lhs))
		}
	}
}

// checkEmitter flags calls whose receiver belongs to an order-sensitive
// output channel: telemetry gauge writes, any method of a Journal or of a
// ring (the type a controller's journal and event ring share: ring order
// is output), and rpc client calls.
func checkEmitter(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return
	}
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	pkgBase := lint.PathBase(named.Obj().Pkg().Path())
	method := sel.Sel.Name
	var what string
	switch {
	case pkgBase == "telemetry" && orderedTelemetryMethods[method]:
		what = "telemetry " + named.Obj().Name() + "." + method
	case named.Obj().Name() == "Journal":
		what = "journal " + method
	case named.Obj().Name() == "ring":
		what = "ring " + method
	case pkgBase == "rpc" && orderedRPCMethods[method]:
		what = "rpc " + method
	default:
		return
	}
	pass.Reportf(call.Pos(),
		"maporder: %s call inside map iteration emits in map order; iterate over sorted keys",
		what)
}

// keyedByRangeKey reports whether lhs is an index expression whose index
// uses the range statement's key variable — `m[k] += v` inside
// `for k, v := range src` updates each key exactly once, so iteration
// order cannot leak into the result.
func keyedByRangeKey(pass *lint.Pass, lhs ast.Expr, rs *ast.RangeStmt) bool {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.ObjectOf(keyID)
	return keyObj != nil && mentions(pass, idx.Index, keyObj)
}

// sortedAfter reports whether a statement following the range loop —
// in its own enclosing block or, when the loop is nested, in any
// enclosing block up to the function boundary — sorts the slice obj: the
// standard collect-then-sort idiom.
func sortedAfter(pass *lint.Pass, rs *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		switch outer := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			inner, ok := stack[i+1].(ast.Stmt)
			if !ok {
				continue
			}
			seen := false
			for _, st := range outer.List {
				if st == inner {
					seen = true
					continue
				}
				if !seen {
					continue
				}
				es, ok := st.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := es.X.(*ast.CallExpr)
				if ok && isSortCall(call) && mentions(pass, call, obj) {
					return true
				}
			}
		}
	}
	return false
}

func isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch pkg.Name {
	case "sort":
		return true // sort.Strings, sort.Ints, sort.Slice, sort.Sort, ...
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

func mentions(pass *lint.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// rootObject resolves the variable at the base of an lvalue (x, x.f,
// x[i], *x all root at x).
func rootObject(pass *lint.Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(v)
		case *ast.SelectorExpr:
			return pass.TypesInfo.ObjectOf(v.Sel)
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(pass *lint.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}
