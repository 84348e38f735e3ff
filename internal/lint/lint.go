// Package lint is Dynamo's determinism-contract vet suite on the standard
// library: the Analyzer and Pass the five rules under internal/lint/...
// are written against, the determinism-critical package classifier, and
// the //lint:allow suppression directive.
//
// The repository's correctness argument rests on a determinism contract —
// same seed ⇒ byte-identical journals, snapshots, and store digests at any
// TickWorkers/ControlWorkers/GOMAXPROCS. The analyzers turn the rules that
// contract implies (no wall clock in virtual-time code, no global
// math/rand, no unordered map iteration feeding ordered outputs, no
// goroutines in serial phases, nil-guarded telemetry instruments) into
// CI-gated static checks, run by cmd/dynamo-vet via `go vet -vettool`.
//
// # Suppression
//
// A finding may be suppressed only with an explicit, reasoned directive on
// the offending line or the line directly above it:
//
//	//lint:allow <rule> — <reason>
//
// The separator may be an em dash ("—") or a double hyphen ("--"); the
// reason is mandatory. A directive without a reason is itself reported as
// a violation, so every suppression in the tree documents why the rule
// does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// CriticalPackages is the set of determinism-critical package names (the
// final import-path element under dynamo/internal). Code in these packages
// runs inside the virtual-time simulation or the control plane whose
// decisions must be reproducible, so the wallclock and maporder analyzers
// police them. telemetry and rpc transport internals are deliberately
// absent: they are wall-clock-facing by design and sit outside the
// deterministic core.
var CriticalPackages = map[string]bool{
	"sim":        true,
	"core":       true,
	"workload":   true,
	"topology":   true,
	"faults":     true,
	"statestore": true,
	"platform":   true,
	"simclock":   true,
}

// Critical reports whether the import path names a determinism-critical
// package. Classification is by final path element so that analyzer
// testdata packages (e.g. "sim", "a/core") are policed the same way as
// the real "dynamo/internal/sim".
func Critical(pkgPath string) bool {
	return CriticalPackages[PathBase(pkgPath)]
}

// PathBase returns the final element of an import path.
func PathBase(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// An Analyzer is one rule: Run inspects the package in the Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	Name string // rule name, as written in //lint:allow <rule>
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass is one type-checked package presented to one analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// allowed holds the lines a well-formed //lint:allow for the running
	// rule covers: the directive's own line and the line after it (so a
	// directive on its own line suppresses the statement below, and a
	// trailing comment suppresses its own line).
	allowed map[lineKey]bool
	diags   []Diagnostic
}

type lineKey struct {
	file string
	line int
}

// Check type-checks files as the package at path and returns the Pass the
// analyzers run over. conf supplies the importer (and language version).
func Check(conf types.Config, fset *token.FileSet, path string, files []*ast.File) (*Pass, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// Run executes one analyzer over the package and returns its findings in
// report order. Every //lint:allow directive naming the analyzer is read
// first: one without a reason is itself a finding — a suppression must say
// why — and the rest filter what Reportf lets through.
func (p *Pass) Run(a *Analyzer) []Diagnostic {
	p.allowed, p.diags = make(map[lineKey]bool), nil
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseAllow(c)
				if !ok || d.Rule != a.Name {
					continue
				}
				if d.Reason == "" {
					p.diags = append(p.diags, Diagnostic{c.Pos(), fmt.Sprintf(
						"%s: //lint:allow %s directive requires a reason (\"//lint:allow %s — <why>\")",
						a.Name, a.Name, a.Name)})
					continue
				}
				at := p.Fset.Position(c.Pos())
				p.allowed[lineKey{at.Filename, at.Line}] = true
				p.allowed[lineKey{at.Filename, at.Line + 1}] = true
			}
		}
	}
	a.Run(p)
	return p.diags
}

// Reportf records a finding unless a reasoned //lint:allow directive for
// the running rule covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	at := p.Fset.Position(pos)
	if p.allowed[lineKey{at.Filename, at.Line}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{pos, fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Most rules do
// not apply to tests (tests may use wall time, ad-hoc randomness, etc.).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowRe matches "//lint:allow <rule>" with an optional separator and
// reason; group 1 is the rule, group 2 the separator (if any), group 3 the
// reason text.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)\s*(—|--)?\s*(.*)$`)

// Allow is one parsed //lint:allow directive.
type Allow struct {
	Rule   string // rule name the directive suppresses
	Reason string // mandatory justification ("" when malformed)
}

// ParseAllow parses a single comment; ok is false when the comment is not
// a lint:allow directive at all.
func ParseAllow(c *ast.Comment) (Allow, bool) {
	m := allowRe.FindStringSubmatch(c.Text)
	if m == nil {
		return Allow{}, false
	}
	reason := strings.TrimSpace(m[3])
	if m[2] == "" {
		// No separator: the whole trailing text is not a reason
		// ("//lint:allow maporder because" would be ambiguous). Require
		// the explicit "—"/"--" so reasons are always delimited.
		reason = ""
	}
	return Allow{Rule: m[1], Reason: reason}, true
}

// Preorder calls fn for every node of type N in files, depth first.
func Preorder[N ast.Node](files []*ast.File, fn func(N)) {
	WithStack(files, func(n N, _ []ast.Node) { fn(n) })
}

// WithStack is Preorder that also passes the chain of enclosing nodes,
// from the *ast.File down to n itself (stack[len(stack)-1] == n). The
// slice is reused between calls.
func WithStack[N ast.Node](files []*ast.File, fn func(n N, stack []ast.Node)) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if t, ok := n.(N); ok {
				fn(t, stack)
			}
			return true
		})
	}
}

// StaticCallee returns the function or concrete method a call statically
// invokes, or nil for a dynamic call (function value, interface method),
// a conversion or a builtin.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) { // explicit instantiation: f[T](…)
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}
