package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/rpc"
	"dynamo/internal/sim"
	"dynamo/internal/wire"
)

// agentSpan is the wrapped agent seam: every agent handler is put behind
// a timer, so the span covers exactly the work an agent does per request.
// Handlers run on one loop goroutine, so it needs no locking; read it from
// that goroutine or after the loop has stopped.
type agentSpan struct {
	busy  time.Duration
	count uint64
	calls map[string]uint64 // by method
}

func newAgentSpan() *agentSpan { return &agentSpan{calls: map[string]uint64{}} }

// wrap re-registers every agent of a built sim behind the timer (Register
// replaces; controllers resolve the address on every call).
func (a *agentSpan) wrap(s *sim.Sim) {
	for id, ag := range s.Agents {
		s.Net.Register(core.AgentAddr(id), a.timed(ag.Handler()))
	}
}

func (a *agentSpan) timed(h rpc.Handler) rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		t := time.Now()
		m, err := h(method, body)
		a.busy += time.Since(t)
		a.count++
		a.calls[method]++
		return m, err
	}
}

func (a *agentSpan) reset() {
	a.busy, a.count = 0, 0
	a.calls = map[string]uint64{}
}

// span is one traced interval. Spans are kept in memory and written out
// once, when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // the span that caused this one
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since the run began
	DurS   float64 `json:"dur_s"`
	Count  uint64  `json:"count,omitempty"` // operations inside the span
}

// traceLog collects the spans of one traced run.
type traceLog struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	epoch    time.Time
}

func newTraceLog(workload string, seed int64) *traceLog {
	return &traceLog{Workload: workload, Seed: seed, epoch: time.Now()}
}

// add records a span and returns its ID for use as a parent.
func (t *traceLog) add(parent int, name string, start time.Time, dur time.Duration, count uint64) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{
		ID: id, Parent: parent, Name: name,
		StartS: start.Sub(t.epoch).Seconds(), DurS: dur.Seconds(), Count: count,
	})
	return id
}

// close sets the length of a span that was added when it began.
func (t *traceLog) close(id int, durS float64, count uint64) {
	t.Spans[id-1].DurS, t.Spans[id-1].Count = durS, count
}

// traceFile is where a traced run leaves its spans, relative to the
// directory the benchmark is run from (the root of a checkout).
var traceFile = filepath.Join("bench", "out", "trace.json")

func (t *traceLog) write() error {
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(traceFile, data, 0o644)
}
