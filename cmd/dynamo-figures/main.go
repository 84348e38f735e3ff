// Command dynamo-figures regenerates the paper's tables and figures, and
// the design ablations the paper argues from.
//
// Usage:
//
//	dynamo-figures [-experiment all|fig1|fig3|fig4|fig5|fig6|fig9|fig10|
//	                fig11|fig12|fig13|fig14|fig15|fig16|table1|ablations]
//	               [-scale 1.0] [-seed 1] [-out dir]
//
// Each experiment prints the same rows/series the paper reports; absolute
// numbers come from the simulator, so the shapes (who wins, by what
// factor, where crossovers fall) are the comparison targets — see
// EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams passed in; it returns
// the exit status (2 for bad flags or an unknown experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynamo-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "experiment to run (all, fig1, ..., table1, ablations)")
	scale := fs.Float64("scale", 1.0, "fleet/duration scale in (0,1]")
	seed := fs.Int64("seed", 1, "random seed (results are reproducible per seed)")
	outDir := fs.String("out", "", "also write each experiment's report to <out>/<name>.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var fc config.FlagCheck
	fc.Fraction("scale", *scale)
	if err := fc.Err(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	want := strings.ToLower(*exp)

	ran := 0
	start := time.Now()
	for _, r := range experiments.All {
		if want != "all" && want != r.Name {
			continue
		}
		var report bytes.Buffer
		t0 := time.Now()
		r.Run(experiments.Options{Seed: *seed, Scale: *scale, W: io.MultiWriter(stdout, &report)})
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, r.Name+".txt"), report.Bytes(), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n", r.Name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	fmt.Fprintf(stdout, "\n%d experiment(s) in %v (seed %d, scale %.2f)\n",
		ran, time.Since(start).Round(time.Millisecond), *seed, *scale)
	return 0
}
