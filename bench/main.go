// Command bench is the repository's end-to-end benchmark: five named
// workloads over the simulator and the real TCP transport, each run
// untraced for the end-to-end metrics or traced for the per-layer budget.
// BENCHMARK.json at the repository root names the metrics; README.md in
// this directory defines them.
//
//	bash bench/run.sh --workload leaf_cap --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object per workload run:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// watchdogLimit bounds one workload's run. A run that is still going then
// is reported as failed instead of hanging the caller; it sits inside the
// 180 s a run is allowed.
const watchdogLimit = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome of one workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "the only input to the workload generators")
	seconds := fs.Float64("seconds", 10, "host seconds to spend in timed sections per workload")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and bench/out/trace.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	// One processor. The benchmark's hosts are a couple of cores of a shared
	// machine: with two Ps the simulator's workers and the garbage collector
	// spread onto the second core when it is free and queue behind a
	// neighbour when it is not, and a one-thread neighbour moved every host
	// time here by ~20%; pinned to one P it moves them by under 1%. Worker
	// counts that default to GOMAXPROCS become 1, which behaviour (and the
	// outcome digest) does not depend on.
	runtime.GOMAXPROCS(1)
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	opt := options{seed: *seed, seconds: *seconds, minRounds: 3, out: stdout}
	if *trace == 1 {
		// A traced iteration is already two or three rounds.
		opt.minRounds = 2
	}
	code := 0
	for _, name := range names {
		correct, err := runOne(name, *trace == 1, opt, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s failed: %v\n", name, err)
			return 1
		}
		if !correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload under the watchdog and prints its metrics and
// its result line. It reports whether the output checks passed.
func runOne(name string, traced bool, opt options, stderr io.Writer) (bool, error) {
	rep, err := withWatchdog(func() (*report, error) { return runWorkload(name, traced, opt) })
	if err != nil {
		return false, err
	}
	units := endToEnd
	if traced {
		units = perLayer
	}
	res, err := rep.result(units)
	if err != nil {
		return false, err
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "bench: %s: output check failed: %s\n", name, p)
	}
	printMetrics(opt.out, name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(opt.out, "%s\n", line)
	return res.Correct, nil
}

// withWatchdog runs f and gives up on it after watchdogLimit. The run is
// abandoned, not cancelled: the caller exits the process.
func withWatchdog(f func() (*report, error)) (*report, error) {
	type outcome struct {
		rep *report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := f()
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		return o.rep, o.err
	case <-time.After(watchdogLimit):
		return nil, fmt.Errorf("watchdog: still running after %v", watchdogLimit)
	}
}

// result attaches units, and refuses a run that is missing a metric the
// benchmark names or reports one that is not a finite number.
func (r *report) result(units map[string]string) (*result, error) {
	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(units)),
	}
	for name, unit := range units {
		v, ok := r.metrics[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	return res, nil
}

func printMetrics(out io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%s: %-34s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
}
