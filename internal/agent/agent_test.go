package agent

import (
	"math"
	"strings"
	"testing"
	"time"

	"dynamo/internal/platform"
	"dynamo/internal/server"
	"dynamo/internal/wire"
)

func newTestAgent(t *testing.T, load float64, opts platform.Options) (*Agent, *server.Server) {
	t.Helper()
	host := server.New(server.Config{
		ID: "srv1", Service: "web",
		Model:  server.MustModel("haswell2015"),
		Source: server.LoadFunc(func(time.Duration) float64 { return load }),
	})
	for now := time.Duration(0); now <= 5*time.Second; now += 250 * time.Millisecond {
		host.Tick(now)
	}
	plat := platform.NewMSR(host, opts)
	return New("srv1", "web", "haswell2015", plat), host
}

func call(t *testing.T, a *Agent, method string, req wire.Message, resp wire.Message) error {
	t.Helper()
	var body []byte
	if req != nil {
		body = wire.Marshal(req)
	}
	m, err := a.Handler()(method, body)
	if err != nil {
		return err
	}
	if resp != nil {
		return wire.Unmarshal(wire.Marshal(m), resp)
	}
	return nil
}

func TestAgentReadPower(t *testing.T) {
	a, host := newTestAgent(t, 0.6, platform.Options{Seed: 1})
	var resp ReadPowerResponse
	if err := call(t, a, MethodReadPower, nil, &resp); err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.TotalWatts-float64(host.Power())) > 5 {
		t.Errorf("read %v, truth %v", resp.TotalWatts, host.Power())
	}
	if resp.Service != "web" {
		t.Errorf("metadata wrong: %+v", resp)
	}
	if resp.Capped {
		t.Error("fresh server should be uncapped")
	}
}

func TestAgentSetAndClearCap(t *testing.T) {
	a, host := newTestAgent(t, 0.8, platform.Options{Seed: 2})
	var resp CapResponse
	if err := call(t, a, MethodSetCap, &SetCapRequest{LimitWatts: 220}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("cap rejected: %s", resp.Msg)
	}
	if lim, ok := host.Limit(); !ok || lim != 220 {
		t.Errorf("host limit = %v, %v", lim, ok)
	}
	var read ReadPowerResponse
	if err := call(t, a, MethodReadPower, nil, &read); err != nil {
		t.Fatal(err)
	}
	if !read.Capped || read.CapWatts != 220 {
		t.Errorf("read does not reflect cap: %+v", read)
	}
	if err := call(t, a, MethodClearCap, nil, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatal("uncap failed")
	}
	if _, ok := host.Limit(); ok {
		t.Error("limit not cleared")
	}
}

func TestAgentRejectsBadCap(t *testing.T) {
	a, _ := newTestAgent(t, 0.5, platform.Options{Seed: 3})
	var resp CapResponse
	if err := call(t, a, MethodSetCap, &SetCapRequest{LimitWatts: -5}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("negative cap should be rejected")
	}
}

func TestAgentUnknownMethod(t *testing.T) {
	a, _ := newTestAgent(t, 0.5, platform.Options{Seed: 4})
	if _, err := a.Handler()("Agent.Nope", nil); err == nil {
		t.Fatal("unknown method should error")
	} else if !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestAgentReadFailurePropagates(t *testing.T) {
	a, _ := newTestAgent(t, 0.5, platform.Options{Seed: 5, FailureRate: 1})
	if _, err := a.Handler()(MethodReadPower, nil); err == nil {
		t.Fatal("read failure should propagate as error")
	}
	_, _, _, errs := a.Stats()
	if errs == 0 {
		t.Error("error counter not bumped")
	}
}

// TestAgentCounters: Stats counts every served read, cap and uncap.
func TestAgentCounters(t *testing.T) {
	a, _ := newTestAgent(t, 0.5, platform.Options{Seed: 6})
	for i := 0; i < 3; i++ {
		var r ReadPowerResponse
		if err := call(t, a, MethodReadPower, nil, &r); err != nil {
			t.Fatal(err)
		}
	}
	var capResp CapResponse
	if err := call(t, a, MethodSetCap, &SetCapRequest{LimitWatts: 250}, &capResp); err != nil {
		t.Fatal(err)
	}
	if err := call(t, a, MethodClearCap, nil, &capResp); err != nil {
		t.Fatal(err)
	}
	if reads, caps, uncaps, errs := a.Stats(); reads != 3 || caps != 1 || uncaps != 1 || errs != 0 {
		t.Errorf("stats = %d reads, %d caps, %d uncaps, %d errors; want 3, 1, 1, 0", reads, caps, uncaps, errs)
	}
}

func TestAgentMalformedSetCapBody(t *testing.T) {
	a, _ := newTestAgent(t, 0.5, platform.Options{Seed: 7})
	if _, err := a.Handler()(MethodSetCap, []byte{0x01}); err == nil {
		t.Fatal("malformed body should error")
	}
}

func TestProtoRoundTrips(t *testing.T) {
	msgs := []wire.Message{
		&ReadPowerResponse{TotalWatts: 250.5, Service: "cache", CapWatts: 230, Capped: true},
		&SetCapRequest{LimitWatts: 199.5},
		&CapResponse{OK: false, Msg: "nope"},
	}
	for _, in := range msgs {
		buf := wire.Marshal(in)
		switch v := in.(type) {
		case *ReadPowerResponse:
			var out ReadPowerResponse
			if err := wire.Unmarshal(buf, &out); err != nil || out != *v {
				t.Errorf("round trip %T: %v %+v", in, err, out)
			}
		case *SetCapRequest:
			var out SetCapRequest
			if err := wire.Unmarshal(buf, &out); err != nil || out != *v {
				t.Errorf("round trip %T failed", in)
			}
		case *CapResponse:
			var out CapResponse
			if err := wire.Unmarshal(buf, &out); err != nil || out != *v {
				t.Errorf("round trip %T failed", in)
			}
		}
	}
}
