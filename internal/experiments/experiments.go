// Package experiments regenerates every table and figure from the paper's
// evaluation (§II and §IV) and the design ablations it argues from. Each
// Figure*/Table* function builds the workload and fleet the paper
// describes (scaled to run in seconds), executes it on the deterministic
// simulator, prints the same rows/series the paper reports, and returns a
// structured result that the test suite asserts shape properties on (who
// wins, by roughly what factor, where crossovers fall). Ablations does the
// same for the paper's design choices against their alternatives.
package experiments

import (
	"fmt"
	"io"
	"time"

	"dynamo/internal/sim"
)

// Options control experiment execution.
type Options struct {
	// Seed drives all randomness; results are reproducible per seed.
	Seed int64
	// Scale in (0, 1] shrinks fleet sizes and durations for quick runs
	// (tests use small scales; the CLI defaults to 1.0).
	Scale float64
	// W receives the human-readable report; nil discards it.
	W io.Writer
}

// Experiment is one runnable table, figure or ablation.
type Experiment struct {
	Name string
	Run  func(Options)
}

// All lists every experiment in the order dynamo-figures runs them.
var All = []Experiment{
	{"fig1", func(o Options) { Figure1(o) }},
	{"fig3", func(o Options) { Figure3(o) }},
	{"fig4", func(o Options) { Figure4(o) }},
	{"fig5", func(o Options) { Figure5(o) }},
	{"fig6", func(o Options) { Figure6(o) }},
	{"fig9", func(o Options) { Figure9(o) }},
	{"fig10", func(o Options) { Figure10(o) }},
	{"fig11", func(o Options) { Figure11(o) }},
	{"fig12", func(o Options) { Figure12(o) }},
	{"fig13", func(o Options) { Figure13(o) }},
	{"fig14", func(o Options) { Figure14(o) }},
	{"fig15", func(o Options) { Figure15(o) }},
	{"fig16", func(o Options) { Figure16(o) }},
	{"table1", func(o Options) { TableI(o) }},
	{"ablations", func(o Options) { Ablations(o) }},
}

func (o *Options) fill() {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1.0
	}
	if o.W == nil {
		o.W = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// newSim builds an experiment's simulator; a config sim.New rejects is a
// bug in the experiment.
func newSim(cfg sim.Config) *sim.Sim {
	s, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// scaleInt scales n by o.Scale with a floor.
func (o Options) scaleInt(n, min int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		return min
	}
	return v
}

// scaleDur scales d by o.Scale with a floor.
func (o Options) scaleDur(d, min time.Duration) time.Duration {
	v := time.Duration(float64(d) * o.Scale)
	if v < min {
		return min
	}
	return v
}

func (o Options) printf(format string, args ...interface{}) {
	fmt.Fprintf(o.W, format, args...)
}

func (o Options) section(title string) {
	fmt.Fprintf(o.W, "\n== %s ==\n", title)
}
