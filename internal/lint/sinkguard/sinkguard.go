// Package sinkguard enforces the nil-means-disabled telemetry convention
// at call sites.
//
// A nil *telemetry.Sink disables the whole observability subsystem, and
// every method on the telemetry package's own types is nil-safe. But
// components do not hold raw sinks on hot paths — they hold unexported
// instrument-wrapper structs (e.g. core's ctrlInstr) whose fields are
// pre-registered counters, gauges, and histograms. Those wrappers are nil
// whenever telemetry is off, and selecting a field or calling a
// non-nil-safe method through a nil wrapper panics — precisely in the
// telemetry-off configuration the deterministic tests run, and only on
// the code path that happened to fire. sinkguard makes the convention
// mechanical: every selection through a possibly-nil instrument wrapper
// must be guarded by a nil check (enclosing `if w != nil`, or an earlier
// `if w == nil { return }`), unless the method itself opens with a
// nil-receiver guard or the wrapper is the receiver of the enclosing
// method (wrapper methods assume a guarded caller).
package sinkguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dynamo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "sinkguard",
	Doc:  "require nil guards when selecting through nil-means-disabled telemetry instrument wrappers",
	Run:  run,
}

func run(pass *lint.Pass) {
	nilSafe := nilSafeMethods(pass)

	lint.WithStack(pass.Files, func(sel *ast.SelectorExpr, stack []ast.Node) {
		if pass.InTestFile(sel.Pos()) {
			return
		}
		w := wrapperOf(pass.TypesInfo.TypeOf(sel.X))
		if w == nil {
			return
		}
		if fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); ok && nilSafe[fn] {
			return
		}
		if provablyNonNil(pass, sel.X, stack) || guarded(pass, sel.X, stack) {
			return
		}
		pass.Reportf(sel.Pos(),
			"sinkguard: %s selected through possibly-nil *%s (nil when telemetry is disabled); guard with `if %s != nil` or give the method a nil-receiver guard",
			sel.Sel.Name, w.Obj().Name(), types.ExprString(sel.X))
	})
}

// wrapperOf returns the named instrument-wrapper type when t is a pointer
// to one. Wrappers follow the repo-wide convention: an unexported struct
// named "<something>Instr" (ctrlInstr, rpcInstr, storeInstr, ...) holding
// at least one field that is (an array or slice of) a pointer to a
// telemetry instrument type. The name suffix is load-bearing — structs
// that merely contain an instrument among other state (a per-peer record,
// a registry series) are not nil-means-disabled and are not policed.
func wrapperOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Exported() {
		return nil
	}
	if !strings.HasSuffix(named.Obj().Name(), "Instr") {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		switch seq := ft.Underlying().(type) {
		case *types.Array:
			ft = seq.Elem()
		case *types.Slice:
			ft = seq.Elem()
		}
		if isTelemetryPtr(ft) {
			return named
		}
	}
	return nil
}

func isTelemetryPtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return lint.PathBase(named.Obj().Pkg().Path()) == "telemetry"
}

// nilSafeMethods collects pointer-receiver methods in this package whose
// body opens with `if recv == nil { ... }` — the wrapper's own way of
// honoring nil-means-disabled, which makes call sites safe unguarded.
func nilSafeMethods(pass *lint.Pass) map[*types.Func]bool {
	safe := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Body.List) == 0 {
				continue
			}
			recvName := receiverName(fd)
			if recvName == "" {
				continue
			}
			ifs, ok := fd.Body.List[0].(*ast.IfStmt)
			if !ok || !isNilCheck(ifs.Cond, recvName, token.EQL) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && fn != nil {
				safe[fn] = true
			}
		}
	}
	return safe
}

func receiverName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// isNilCheck reports whether cond is `name <op> nil` (either operand
// order), with op EQL or NEQ.
func isNilCheck(cond ast.Expr, name string, op token.Token) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	return (exprIs(be.X, name) && isNil(be.Y)) || (exprIs(be.Y, name) && isNil(be.X))
}

func exprIs(e ast.Expr, text string) bool { return types.ExprString(e) == text }

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// provablyNonNil reports cases where the base expression cannot be nil:
// the receiver of the enclosing wrapper method (callers guard), or a
// variable/field assigned from &T{...} / new(T) earlier in the same
// function (the construct-then-populate pattern).
func provablyNonNil(pass *lint.Pass, base ast.Expr, stack []ast.Node) bool {
	fd := enclosingFuncDecl(stack)
	if fd == nil || fd.Body == nil {
		return false
	}
	var obj types.Object
	if id, ok := base.(*ast.Ident); ok {
		obj = pass.TypesInfo.ObjectOf(id)
		if obj != nil && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			if pass.TypesInfo.ObjectOf(fd.Recv.List[0].Names[0]) == obj {
				return true
			}
		}
	}
	text := types.ExprString(base)
	selPos := stack[len(stack)-1].Pos()
	nonNil := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= selPos {
			return !nonNil
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			switch {
			case as.Tok == token.DEFINE && obj != nil:
				lid, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.ObjectOf(lid) != obj {
					continue
				}
			case as.Tok == token.ASSIGN:
				if types.ExprString(lhs) != text {
					continue
				}
			default:
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.UnaryExpr:
				if rhs.Op == token.AND {
					nonNil = true
				}
			case *ast.CallExpr:
				if fid, ok := rhs.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.ObjectOf(fid).(*types.Builtin); ok && b.Name() == "new" {
						nonNil = true
					}
				}
			}
		}
		return !nonNil
	})
	return nonNil
}

// guarded reports whether the selection at the top of the stack is
// protected by a nil check on the same expression: an enclosing
// `if X != nil { ... }` (or the else arm of `if X == nil`), an if/guard
// with init `if w := ...; w != nil`, or an earlier terminating
// `if X == nil { return }` in the enclosing function.
func guarded(pass *lint.Pass, base ast.Expr, stack []ast.Node) bool {
	text := types.ExprString(base)
	selPos := stack[len(stack)-1].Pos()

	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		inBody := i+1 < len(stack) && stack[i+1] == ast.Node(ifs.Body)
		inElse := i+1 < len(stack) && ifs.Else != nil && stack[i+1] == ast.Node(ifs.Else)
		if inBody && condEstablishes(ifs.Cond, text, token.NEQ) {
			return true
		}
		if inElse && isNilCheck(ifs.Cond, text, token.EQL) {
			return true
		}
	}

	fd := enclosingFuncDecl(stack)
	if fd == nil || fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Pos() >= selPos || found {
			return !found
		}
		if isNilCheck(ifs.Cond, text, token.EQL) && terminates(ifs.Body) {
			found = true
		}
		return !found
	})
	return found
}

// condEstablishes reports whether cond guarantees `text != nil` when it
// evaluates true — either the check itself or a conjunction containing it.
func condEstablishes(cond ast.Expr, text string, op token.Token) bool {
	if isNilCheck(cond, text, op) {
		return true
	}
	be, ok := cond.(*ast.BinaryExpr)
	if ok && be.Op == token.LAND {
		return condEstablishes(be.X, text, op) || condEstablishes(be.Y, text, op)
	}
	return false
}

// terminates reports whether a block's final statement unconditionally
// leaves the enclosing scope.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
