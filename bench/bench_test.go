package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json this package must agree
// with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func units(ms []namedMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the metric tables in
// metrics.go naming the same workloads and metrics with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}
	if got := units(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, want %v", got, endToEnd)
	}
	if got := units(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n got %v\nwant %v", got, perLayer)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
}

// TestSmoke runs every workload once untraced on seed 1 and once traced on
// seed 7, one round each, and asserts the output checks, that no operation
// failed, and that every named metric comes out finite (end-to-end ones
// also non-zero). The traced pass compares the outcome digests of two runs
// of the same seed, so it doubles as the determinism check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a minute")
	}
	traceFile = filepath.Join(t.TempDir(), "trace.json")
	for _, name := range workloadNames() {
		name := name
		t.Run(name+"/untraced", func(t *testing.T) {
			rep, err := runWorkload(name, false, options{seed: 1, seconds: 0.01, minRounds: 1, out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			res := checkReport(t, rep, endToEnd)
			for metric, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", metric, v.Value)
				}
			}
		})
		t.Run(name+"/traced", func(t *testing.T) {
			rep, err := runWorkload(name, true, options{seed: 7, seconds: 0.01, minRounds: 1, out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			res := checkReport(t, rep, perLayer)
			var log traceLog
			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &log); err != nil {
				t.Fatal(err)
			}
			if log.Workload != name || len(log.Spans) == 0 {
				t.Errorf("trace file holds workload %q with %d spans", log.Workload, len(log.Spans))
			}
			checkLayerSplit(t, name, res)
		})
	}
}

func checkReport(t *testing.T, rep *report, units map[string]string) *result {
	t.Helper()
	for _, p := range rep.problems {
		t.Errorf("output check failed: %s", p)
	}
	if rep.attempted < 1 || rep.failed != 0 {
		t.Errorf("attempted %d, failed %d; want at least one and none", rep.attempted, rep.failed)
	}
	res, err := rep.result(units)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(units) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(units))
	}
	return res
}

// checkLayerSplit asserts the design intent of the workloads that the
// counts can show: which workloads write caps and which inject faults.
// (The time shares are reported in README.md, not asserted: a loaded test
// host moves them.)
func checkLayerSplit(t *testing.T, name string, res *result) {
	t.Helper()
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	writes := map[string]bool{"leaf_cap": true, "sb_surge_chaos": true, "tcp_pull": true}
	if got := v("agent.calls.set_cap") > 0; got != writes[name] {
		t.Errorf("agent.calls.set_cap = %v, want > 0 only on leaf_cap, sb_surge_chaos and tcp_pull", v("agent.calls.set_cap"))
	}
	if got := v("faults.dropped") > 0; got != (name == "sb_surge_chaos") {
		t.Errorf("faults.dropped = %v, want > 0 only on sb_surge_chaos", v("faults.dropped"))
	}
	if v("agent.calls.read_power") == 0 && name != "open_loop_10k" {
		t.Error("no ReadPower call was traced")
	}
}
