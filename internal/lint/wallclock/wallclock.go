// Package wallclock forbids reading the wall clock in determinism-critical
// packages.
//
// The simulation and control plane run on simclock virtual time: every
// timestamp that feeds a journal entry, checkpoint, band decision, or fault
// verdict must come from the loop's virtual clock so that the same seed
// replays to byte-identical output at any worker count. A stray time.Now
// (or timer) silently couples decisions to host scheduling. The only
// sanctioned wall-clock bridge is simclock/wall.go; telemetry and the rpc
// transport are outside the policed set by design (operational metrics and
// socket deadlines genuinely want wall time).
package wallclock

import (
	"go/ast"
	"path/filepath"

	"dynamo/internal/lint"
)

// Forbidden lists the package-level functions of package time that read or
// schedule off the wall clock. Pure types and constants (time.Duration,
// time.Second) remain fine — they carry no clock.
var Forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time functions in determinism-critical packages (use simclock virtual time)",
	Run:  run,
}

func run(pass *lint.Pass) {
	if !lint.Critical(pass.Pkg.Path()) {
		return
	}
	lint.Preorder(pass.Files, func(call *ast.CallExpr) {
		fn := lint.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !Forbidden[fn.Name()] {
			return
		}
		if exempt(pass, call) {
			return
		}
		pass.Reportf(call.Pos(),
			"wallclock: call to time.%s in determinism-critical package %s; use simclock virtual time",
			fn.Name(), lint.PathBase(pass.Pkg.Path()))
	})
}

// exempt reports whether the call sits in a file where wall time is
// sanctioned: test files, and simclock's wall.go (the one deliberate
// bridge between virtual and wall time).
func exempt(pass *lint.Pass, call *ast.CallExpr) bool {
	if pass.InTestFile(call.Pos()) {
		return true
	}
	file := pass.Fset.Position(call.Pos()).Filename
	return filepath.Base(file) == "wall.go" && lint.PathBase(pass.Pkg.Path()) == "simclock"
}
