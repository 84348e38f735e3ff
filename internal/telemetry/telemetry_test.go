package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "device", "rpp1")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "device", "rpp1"); again != c {
		t.Error("same name+labels should return the same counter")
	}
	if other := r.Counter("reqs_total", "device", "rpp2"); other == c {
		t.Error("different labels should return a different counter")
	}

	g := r.Gauge("agg_watts")
	g.Set(120.5)
	g.Add(-20.5)
	if got := g.Value(); got != 100 {
		t.Errorf("gauge = %v, want 100", got)
	}

	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("histogram count = %d, want 4", got)
	}
	if got := h.Sum(); got != 5.555 {
		t.Errorf("histogram sum = %v, want 5.555", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total")
	r.Gauge("x_total")
}

func TestNilHandlesAreSafe(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink must report disabled")
	}
	c := s.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must stay 0")
	}
	g := s.Gauge("y")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge must stay 0")
	}
	h := s.Histogram("z", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must stay empty")
	}
}

// TestNilSinkPathAllocatesNothing is the contract the control loop relies
// on: with telemetry disabled, instrument calls must not allocate.
func TestNilSinkPathAllocatesNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(4)
	})
	if allocs != 0 {
		t.Errorf("nil instrument path allocates %.1f times per op, want 0", allocs)
	}
}

func TestEnabledCounterAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total")
	h := r.Histogram("hot_seconds", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.01)
	})
	if allocs != 0 {
		t.Errorf("enabled increment path allocates %.1f times per op, want 0", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_seconds", nil, "worker", fmt.Sprint(i%2))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
	}
	// Concurrent exposition while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dynamo_cycles_total", "device", "rpp1").Add(7)
	r.Gauge("dynamo_agg_watts", "device", "rpp1").Set(1234.5)
	h := r.Histogram("dynamo_cycle_seconds", []float64{0.1, 1}, "device", "rpp1")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dynamo_cycles_total counter\n",
		`dynamo_cycles_total{device="rpp1"} 7` + "\n",
		"# TYPE dynamo_agg_watts gauge\n",
		`dynamo_agg_watts{device="rpp1"} 1234.5` + "\n",
		"# TYPE dynamo_cycle_seconds histogram\n",
		`dynamo_cycle_seconds_bucket{device="rpp1",le="0.1"} 1` + "\n",
		`dynamo_cycle_seconds_bucket{device="rpp1",le="1"} 2` + "\n",
		`dynamo_cycle_seconds_bucket{device="rpp1",le="+Inf"} 3` + "\n",
		`dynamo_cycle_seconds_sum{device="rpp1"} 2.55` + "\n",
		`dynamo_cycle_seconds_count{device="rpp1"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "dynamo_agg_watts") > strings.Index(out, "dynamo_cycles_total") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "msg", `a "quoted\" thing`+"\nnewline").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc_total{msg="a \"quoted\\\" thing\nnewline"} 1`) {
		t.Errorf("bad escaping:\n%s", buf.String())
	}
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "testd")
	l.now = func() time.Time { return time.Date(2016, 6, 18, 14, 3, 5, 123e6, time.UTC) }
	l.Log(LevelWarning, "cap command failed", "device", "rpp1", "detail", "agent srv01 down")
	got := buf.String()
	want := `ts=2016-06-18T14:03:05.123Z level=warning component=testd msg="cap command failed" device=rpp1 detail="agent srv01 down"` + "\n"
	if got != want {
		t.Errorf("log line:\n got %q\nwant %q", got, want)
	}
	var nilLogger *Logger
	nilLogger.Log(LevelInfo, "ignored") // must not panic
}

func TestHTTPEndpoints(t *testing.T) {
	s := NewSink()
	s.Counter("dynamo_demo_total", "device", "rpp1").Add(3)

	srv, err := Serve("127.0.0.1:0", s, func() interface{} {
		return map[string]interface{}{"device": "rpp1", "agg_watts": 4321.0}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, `dynamo_demo_total{device="rpp1"} 3`) {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}

	code, body = get("/debug/state")
	if code != 200 {
		t.Fatalf("/debug/state = %d", code)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	var state map[string]interface{}
	if err := json.Unmarshal(payload["state"], &state); err != nil || state["device"] != "rpp1" {
		t.Errorf("state = %s (%v)", payload["state"], err)
	}
	// The payload is the time and the state; what each controller did is
	// in its own status.
	if len(payload) != 2 || payload["now"] == nil {
		t.Errorf("/debug/state keys: %s", body)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets(1,2,5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets(1,2,5)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid ExpBuckets parameters")
				}
			}()
			bad()
		}()
	}
}

func TestLadderBuckets(t *testing.T) {
	got := LadderBuckets(1e-3, 0.25)
	want := []float64{1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25}
	if len(got) != len(want) {
		t.Fatalf("LadderBuckets(1e-3, 0.25) = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-9 {
			t.Fatalf("LadderBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Bounds must be strictly increasing — a histogram with duplicate
	// bounds would render incoherent cumulative buckets.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("non-increasing bounds at %d: %v", i, got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on invalid LadderBuckets parameters")
			}
		}()
		LadderBuckets(0.5, 0.1)
	}()
}

func TestHistogramBucketConflictPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase_seconds", []float64{0.01, 0.1, 1}, "phase", "observe")
	// Same layout (even reordered) is accepted and returns per-label series.
	h2 := r.Histogram("phase_seconds", []float64{1, 0.1, 0.01}, "phase", "act")
	if h == h2 {
		t.Fatal("different label sets must be distinct histograms")
	}
	if again := r.Histogram("phase_seconds", []float64{0.01, 0.1, 1}, "phase", "observe"); again != h {
		t.Fatal("same name+labels+buckets must return the same histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on conflicting bucket layouts in one family")
		}
	}()
	r.Histogram("phase_seconds", []float64{0.5, 5}, "phase", "late")
}

func TestHistogramNilBucketsUseDefaults(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur_seconds", nil)
	h.Observe(0.3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// DefBuckets layout renders, including its 0.25 bound.
	if !strings.Contains(out, `dur_seconds_bucket{le="0.25"} 0`) {
		t.Errorf("default bucket le=0.25 missing:\n%s", out)
	}
	if !strings.Contains(out, `dur_seconds_bucket{le="0.5"} 1`) {
		t.Errorf("observation not in le=0.5 bucket:\n%s", out)
	}
	// Explicitly requesting DefBuckets again is not a conflict.
	if again := r.Histogram("dur_seconds", DefBuckets); again != h {
		t.Fatal("nil and DefBuckets must resolve to the same family layout")
	}
}
