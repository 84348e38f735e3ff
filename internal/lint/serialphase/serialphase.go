// Package serialphase enforces the //dynamo:serial directive: functions so
// marked must not launch goroutines or send on channels.
//
// The determinism contract partitions each tick and control cycle into
// parallel phases (sharded physics, observe cohorts) and serial phases
// (dirty-subtree aggregation, the act phase, journal and checkpoint
// appends) whose effects must land in one fixed order. Worker-count
// independence holds only because those serial paths run on a single
// goroutine; a `go` statement or channel send inside one reintroduces the
// scheduler into ordering. Marking a function with a `//dynamo:serial` doc
// directive turns that argument into a checked invariant. The analyzer
// also reports directives placed anywhere other than a function's doc
// comment, where they would silently protect nothing.
package serialphase

import (
	"go/ast"
	"regexp"

	"dynamo/internal/lint"
)

var directiveRe = regexp.MustCompile(`^//dynamo:serial(\s|$)`)

var Analyzer = &lint.Analyzer{
	Name: "serialphase",
	Doc:  "forbid go statements and channel sends in functions marked //dynamo:serial",
	Run:  run,
}

func run(pass *lint.Pass) {
	// Directive comments attached to a FuncDecl doc are effective; any
	// other placement is dead weight and reported as misplaced.
	effective := make(map[*ast.Comment]bool)

	lint.Preorder(pass.Files, func(fd *ast.FuncDecl) {
		serial := false
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if directiveRe.MatchString(c.Text) {
					effective[c] = true
					serial = true
				}
			}
		}
		if !serial || fd.Body == nil {
			return
		}
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(st.Pos(),
					"serialphase: go statement inside //dynamo:serial function %s; serial phases must stay single-goroutine",
					name)
			case *ast.SendStmt:
				pass.Reportf(st.Pos(),
					"serialphase: channel send inside //dynamo:serial function %s; serial phases must not synchronize with other goroutines",
					name)
			}
			return true
		})
	})

	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if directiveRe.MatchString(c.Text) && !effective[c] {
					pass.Reportf(c.Pos(),
						"serialphase: misplaced //dynamo:serial directive; it only takes effect in a function's doc comment")
				}
			}
		}
	}
}
