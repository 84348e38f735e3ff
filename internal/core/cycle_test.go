package core

import (
	"testing"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/wire"
)

// levelCase lets one test body run against the cycle kernel under both of
// its levels: how a child of that level is addressed, what a valid pull
// response from it looks like, and how to build a controller over a set of
// children (with the invalid-aggregation threshold opened up, so a lost
// child does not end the cycle's decision).
type levelCase struct {
	name   string
	addr   func(id string) string
	answer func(watts float64) wire.Message
	build  func(loop simclock.Loop, device string, ids []string, dial func(addr string) rpc.Client) *cycleKernel
}

var bothLevels = []levelCase{
	{
		name: "leaf",
		addr: AgentAddr,
		answer: func(w float64) wire.Message {
			return &agent.ReadPowerResponse{TotalWatts: w}
		},
		build: func(loop simclock.Loop, device string, ids []string, dial func(string) rpc.Client) *cycleKernel {
			var refs []AgentRef
			for _, id := range ids {
				refs = append(refs, AgentRef{ServerID: id, Service: id, Client: dial(AgentAddr(id))})
			}
			cfg := LeafConfig{DeviceID: device, Limit: power.KW(100), Alerts: func(Alert) {}}
			return &NewLeaf(loop, cfg, refs).cycleKernel
		},
	},
	{
		name: "upper",
		addr: CtrlAddr,
		answer: func(w float64) wire.Message {
			return &CtrlReadPowerResponse{AggWatts: w, Valid: true}
		},
		build: func(loop simclock.Loop, device string, ids []string, dial func(string) rpc.Client) *cycleKernel {
			var refs []ChildRef
			for _, id := range ids {
				refs = append(refs, ChildRef{ID: id, Client: dial(CtrlAddr(id))})
			}
			cfg := UpperConfig{DeviceID: device, Limit: power.KW(100), Alerts: func(Alert) {}}
			return &NewUpper(loop, cfg, refs).cycleKernel
		},
	},
}

// childReading returns what the level made of child i's last pull.
func childReading(k *cycleKernel, i int) float64 {
	if l, ok := k.lvl.(*Leaf); ok {
		return l.list[i].reading
	}
	return float64(k.lvl.(*Upper).list[i].reading)
}

// heldClient is a transport that delivers nothing by itself: it keeps every
// completion so the test decides when, and how often, a call completes.
type heldClient struct{ done []func([]byte, error) }

func (c *heldClient) Call(_ string, _ wire.Message, _ time.Duration, done func([]byte, error)) {
	c.done = append(c.done, done)
}
func (c *heldClient) Close() error { return nil }

// answerAll completes calls[from:] with the level's valid response.
func (c *heldClient) answerAll(lv levelCase, from int, watts float64) {
	resp := wire.Marshal(lv.answer(watts))
	for _, done := range c.done[from:] {
		done(resp, nil)
	}
}

// TestCycleKernel checks the loop both levels share, once per level.
func TestCycleKernel(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, lv levelCase, loop *simclock.SimLoop)
	}{
		{"late response from a superseded cycle is ignored", func(t *testing.T, lv levelCase, loop *simclock.SimLoop) {
			held := &heldClient{}
			k := lv.build(loop, "dev", []string{"a", "b"}, func(string) rpc.Client { return held })
			k.Start()
			loop.RunUntil(k.pollInterval)
			held.answerAll(lv, 0, 100) // cycle 1 collects and closes
			loop.RunUntil(2 * k.pollInterval)
			if k.cycleSeq != 2 || len(held.done) != 4 {
				t.Fatalf("cycle 2 not collecting: seq %d, %d calls", k.cycleSeq, len(held.done))
			}
			// Cycle 1's completions fire a second time, into cycle 2.
			late := wire.Marshal(lv.answer(999))
			held.done[0](late, nil)
			held.done[1](late, nil)
			if k.inflight != 2 || k.cycles != 1 {
				t.Fatalf("late responses closed cycle 2: inflight %d, cycles %d", k.inflight, k.cycles)
			}
			held.answerAll(lv, 2, 150)
			if agg, valid := k.LastAggregate(); !valid || agg != 300 {
				t.Errorf("cycle 2 aggregate = %v (valid %v), want 300 W from its own pulls", agg, valid)
			}
		}},
		{"a completion delivered twice within one cycle counts once", func(t *testing.T, lv levelCase, loop *simclock.SimLoop) {
			held := &heldClient{}
			k := lv.build(loop, "dev", []string{"a", "b"}, func(string) rpc.Client { return held })
			k.Start()
			loop.RunUntil(k.pollInterval)
			held.done[0](wire.Marshal(lv.answer(100)), nil)
			held.done[0](wire.Marshal(lv.answer(999)), nil)
			if k.inflight != 1 || k.cycles != 0 {
				t.Fatalf("the second delivery counted: inflight %d, cycles %d", k.inflight, k.cycles)
			}
			held.answerAll(lv, 1, 150)
			if agg, valid := k.LastAggregate(); !valid || agg != 250 {
				t.Errorf("aggregate = %v (valid %v), want 250 W from a's first delivery and b's", agg, valid)
			}
		}},
		{"poll skips while the previous cycle is open", func(t *testing.T, lv levelCase, loop *simclock.SimLoop) {
			held := &heldClient{}
			k := lv.build(loop, "dev", []string{"a", "b"}, func(string) rpc.Client { return held })
			k.Start()
			loop.RunUntil(3*k.pollInterval + time.Second)
			if k.cycleSeq != 1 || len(held.done) != 2 || k.cycles != 0 || !k.cycleOpen {
				t.Fatalf("overlapping cycle: seq %d, %d calls, %d cycles, open %v", k.cycleSeq, len(held.done), k.cycles, k.cycleOpen)
			}
			held.answerAll(lv, 0, 100)
			if k.cycles != 1 || k.cycleOpen {
				t.Fatalf("cycle did not close: %d cycles, open %v", k.cycles, k.cycleOpen)
			}
			loop.RunUntil(4 * k.pollInterval)
			if k.cycleSeq != 2 || len(held.done) != 4 {
				t.Errorf("polling did not resume: seq %d, %d calls", k.cycleSeq, len(held.done))
			}
		}},
		{"zero children completes at the poll instant", func(t *testing.T, lv levelCase, loop *simclock.SimLoop) {
			k := lv.build(loop, "dev", nil, nil)
			k.Start()
			loop.RunUntil(2 * k.pollInterval)
			recs := k.Journal().Records()
			if k.cycles != 2 || k.cycleOpen || len(recs) != 2 {
				t.Fatalf("%d cycles, open %v, %d records; want 2 closed cycles", k.cycles, k.cycleOpen, len(recs))
			}
			if r := recs[0]; !r.Valid || r.Time != k.pollInterval || r.Agg != 0 || r.Action != ActionNone {
				t.Errorf("first record %+v; want a valid, empty, no-action cycle at %v", r, k.pollInterval)
			}
		}},
		{"adopted journal and internals resume the predecessor", func(t *testing.T, lv levelCase, loop *simclock.SimLoop) {
			held := &heldClient{}
			k := lv.build(loop, "dev", []string{"a"}, func(string) rpc.Client { return held })
			ck := ControllerCheckpoint{Cycles: 41, LastAction: ActionCap, Contract: power.KW(2),
				Records: []DecisionRecord{{Cycle: 40, Valid: true}, {Cycle: 41, Valid: true, Action: ActionCap}}}
			snapshot := statestore.Entry{Kind: statestore.KindSnapshot, Payload: wire.Marshal(&ck)}
			if n, ok := k.Adopt(statestore.AdoptResult{Found: true, Entries: []statestore.Entry{snapshot}}); n != 2 || !ok {
				t.Fatalf("adopted %d records, replayed %v; want 2, true", n, ok)
			}
			if k.Cycles() != 41 || k.lastAction != ActionCap || k.EffectiveLimit() != power.KW(2) {
				t.Fatalf("adopted cycles %d, lastAction %v, effective limit %v", k.Cycles(), k.lastAction, k.EffectiveLimit())
			}
			k.Start()
			loop.RunUntil(k.pollInterval)
			held.answerAll(lv, 0, 100)
			recs := k.Journal().Records()
			if len(recs) != 3 || recs[2].Cycle != 42 || recs[2].EffLimit != power.KW(2) {
				t.Errorf("journal after one own cycle: %v; want cycle 42 under the 2 kW contract appended to the adopted two", recs)
			}
			if k.plan.prevAction != ActionCap {
				t.Errorf("first cycle's previous action = %v, want the adopted cap", k.plan.prevAction)
			}
		}},
	}
	for _, row := range rows {
		for _, lv := range bothLevels {
			t.Run(row.name+"/"+lv.name, func(t *testing.T) {
				loop := simclock.NewSimLoop()
				loop.SetStepLimit(100_000)
				row.run(t, lv, loop)
			})
		}
	}
}

// recordingClient keeps every attempt's method, encoded request and
// completion, so the test decides how each attempt ends.
type recordingClient struct{ calls []recordedCall }

type recordedCall struct {
	method string
	body   []byte
	done   func([]byte, error)
}

func (c *recordingClient) Call(method string, req wire.Message, _ time.Duration, done func([]byte, error)) {
	c.calls = append(c.calls, recordedCall{method, wire.Marshal(req), done})
}
func (c *recordingClient) Close() error { return nil }

// TestCommandRecordCarriesOneCall: a command record serves one call at a
// time. A retry re-sends the request the call was first sent with, even
// after a newer command went out to the same child on a fresh record; a
// completed record is reused; and an ack landing after Stop changes
// nothing.
func TestCommandRecordCarriesOneCall(t *testing.T) {
	loop := simclock.NewSimLoop()
	client := &recordingClient{}
	leaf := NewLeaf(loop, LeafConfig{
		DeviceID: "rpp", Limit: power.KW(10), CapLeaseTTL: 10 * time.Second,
		Retry:  RetryConfig{MaxRetries: 1, Backoff: 10 * time.Millisecond},
		Alerts: func(Alert) {},
	}, []AgentRef{{ServerID: "srv", Service: "web", Client: client}})
	h := &leaf.list[0].pull
	limitOf := func(i int) float64 {
		t.Helper()
		var req agent.SetCapRequest
		if err := wire.Unmarshal(client.calls[i].body, &req); err != nil {
			t.Fatal(err)
		}
		if req.LeaseNanos != uint64(10*time.Second) {
			t.Fatalf("call %d carries lease %d, want the leaf's 10 s", i, req.LeaseNanos)
		}
		return req.LimitWatts
	}
	ok := wire.Marshal(&agent.CapResponse{OK: true})

	leaf.send(h, opSetCap, 200)
	first := h.cmd
	client.calls[0].done(nil, rpc.ErrTimeout) // the first attempt fails; a retry is due
	leaf.send(h, opSetCap, 180)               // a newer cap while the first call still retries
	if h.cmd == first {
		t.Error("a command issued while the child's last one is in flight reused its record")
	}
	loop.RunUntil(time.Second)
	if len(client.calls) != 3 || client.calls[2].method != agent.MethodSetCap {
		t.Fatalf("%d attempts, want the first, the newer cap and the first's retry", len(client.calls))
	}
	if got := limitOf(2); got != 200 {
		t.Errorf("the retry re-sent %v W, want the 200 W its call was first sent with", got)
	}
	if got := limitOf(1); got != 180 {
		t.Errorf("the newer cap sent %v W, want 180 W", got)
	}
	client.calls[2].done(ok, nil)
	client.calls[1].done(ok, nil)
	if !h.capped {
		t.Fatal("an accepted cap did not mark the agent capped")
	}

	second := h.cmd
	leaf.send(h, opClearCap, 0)
	if h.cmd != second {
		t.Error("a completed record was not reused")
	}
	leaf.Stop()
	client.calls[3].done(ok, nil) // the uncap's ack lands after Stop
	if !h.capped {
		t.Error("an ack after Stop changed the controller's view")
	}
}
