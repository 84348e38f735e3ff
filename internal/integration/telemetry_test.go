package integration

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
)

// TestTelemetryEndToEnd runs a one-leaf dynamo-suited deployment shape with
// telemetry enabled — TCP agents, a leaf controller on a wall-clock loop,
// and the HTTP exposition server — drives a capping episode, and asserts
// the episode is visible through /metrics and /debug/state.
func TestTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	loop := simclock.NewWallLoop()
	defer loop.Close()

	sink := telemetry.NewSink()

	const n = 4
	var refs []core.AgentRef
	for i := 0; i < n; i++ {
		a := startAgent(t, loop, fmt.Sprintf("tel%02d", i), 0.8)
		cl, err := rpc.DialTCP(a.addr, loop)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetTelemetry(sink)
		defer cl.Close()
		refs = append(refs, core.AgentRef{
			ServerID: a.host.ID(), Service: "web", Generation: "haswell2015", Client: cl,
		})
	}

	// Four servers at ~295 W ≈ 1180 W; a 1.1 kW limit forces capping.
	leaf := core.NewLeaf(loop, core.LeafConfig{
		DeviceID:     "rpp-tel",
		Limit:        power.Watts(1100),
		PollInterval: 300 * time.Millisecond,
		PullTimeout:  200 * time.Millisecond,
		Telemetry:    sink,
	}, refs)
	loop.Post(leaf.Start)
	defer loop.Call(leaf.Stop)

	hs, err := telemetry.Serve("127.0.0.1:0", sink, func() interface{} {
		var st core.ControllerStatus
		loop.Call(func() { st = leaf.Status(32) })
		return st
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	// Wait for a capping episode.
	deadline := time.Now().Add(20 * time.Second)
	capped := false
	for time.Now().Before(deadline) {
		time.Sleep(300 * time.Millisecond)
		var events uint64
		loop.Call(func() { events = leaf.CapEvents() })
		if events > 0 {
			capped = true
			break
		}
	}
	if !capped {
		t.Fatal("no capping episode within deadline")
	}
	// Let the cycle that counted the episode finish publishing.
	time.Sleep(time.Second)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + hs.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if v := metricValue(t, body, `dynamo_controller_cap_episodes_total{device="rpp-tel",level="leaf"}`); v < 1 {
		t.Errorf("cap episodes in /metrics = %v, want >= 1\n%s", v, body)
	}
	if v := metricValue(t, body, `dynamo_controller_cycles_total{device="rpp-tel",level="leaf"}`); v < 1 {
		t.Errorf("cycles in /metrics = %v, want >= 1", v)
	}
	for _, want := range []string{
		"# TYPE dynamo_controller_cycle_duration_seconds histogram",
		`dynamo_rpc_client_requests_total{transport="tcp"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/debug/state")
	if code != http.StatusOK {
		t.Fatalf("/debug/state = %d", code)
	}
	var payload struct {
		State core.ControllerStatus `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("bad /debug/state JSON: %v\n%s", err, body)
	}
	if payload.State.Device != "rpp-tel" || payload.State.Level != "leaf" {
		t.Errorf("state identity = %s/%s", payload.State.Device, payload.State.Level)
	}
	if payload.State.CapEvents < 1 {
		t.Errorf("state cap events = %d, want >= 1", payload.State.CapEvents)
	}
	sawCapDecision := false
	for _, d := range payload.State.Decisions {
		if d.Action == "cap" && d.ServersPlanned > 0 {
			sawCapDecision = true
		}
	}
	if !sawCapDecision {
		t.Error("no cap decision with a planned server in /debug/state")
	}
}

// metricValue extracts one sample's value from Prometheus text exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("bad sample %q: %v", m[1], err)
	}
	return v
}
