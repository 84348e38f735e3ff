// Package globalrand forbids the process-global math/rand source
// everywhere outside tests.
//
// Reproducibility demands that every random draw trace to an explicitly
// seeded generator owned by a component (workload streams, fault verdicts,
// retry jitter all carry their own noise stream or stateless hash draws).
// The package-level math/rand functions share one global, lock-guarded
// source: seeding it from one place perturbs draws everywhere else, and
// concurrent callers interleave nondeterministically. This rule applies to
// every package, not just the determinism-critical set — a global draw in
// a daemon flag helper still poisons reproducibility once the sim links it
// in. Constructors (rand.New, rand.NewSource, rand.NewZipf, rand.NewPCG,
// rand.NewChaCha8) stay legal: they are how you build the seeded instances
// the rule demands.
package globalrand

import (
	"go/ast"
	"go/types"

	"dynamo/internal/lint"
)

// constructors are the package-level math/rand functions that build new
// generators rather than draw from the global one.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

var Analyzer = &lint.Analyzer{
	Name: "globalrand",
	Doc:  "forbid top-level math/rand functions (global source); require explicitly seeded *rand.Rand instances",
	Run:  run,
}

func run(pass *lint.Pass) {
	lint.Preorder(pass.Files, func(call *ast.CallExpr) {
		fn := lint.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method on an explicit *rand.Rand / *rand.Zipf — fine
		}
		if constructors[fn.Name()] {
			return
		}
		if pass.InTestFile(call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(),
			"globalrand: use of global %s.%s; draw from an explicitly seeded *rand.Rand instead",
			path, fn.Name())
	})
}
