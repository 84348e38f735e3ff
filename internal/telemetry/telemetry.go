// Package telemetry is Dynamo's operational observability subsystem — the
// paper's §VI lesson that "power monitoring is as important as power
// capping", applied to the reproduction itself. It provides:
//
//   - a low-overhead Registry of named counters, gauges, and fixed-bucket
//     histograms (atomic hot path, safe for concurrent use, zero-allocation
//     on increment);
//   - an HTTP exposition server (Serve) with Prometheus text format at
//     /metrics, a JSON state snapshot at /debug/state, and /healthz;
//   - a logfmt Logger for the daemons.
//
// What a controller did is not recorded here: its decision journal and
// its event ring (typed values, rendered when read) live with the
// controller, and reach /debug/state through the daemon's state function.
//
// Everything hangs off a *Sink, and a nil *Sink disables the whole
// subsystem: every method is nil-safe and the instrument handles it hands
// out are nil-safe no-ops, so the deterministic simulation path pays
// nothing (no allocations, no time reads) when telemetry is off.
package telemetry

// Sink bundles a metric registry. A nil *Sink is a valid, fully disabled
// sink: all methods no-op and return nil-safe handles.
type Sink struct {
	registry *Registry
}

// NewSink creates an enabled sink with a fresh registry.
func NewSink() *Sink {
	return &Sink{registry: NewRegistry()}
}

// Enabled reports whether the sink is non-nil. Instrumented components use
// it to guard work (instrument registration, time reads) that only
// matters when telemetry is on.
func (s *Sink) Enabled() bool { return s != nil }

// Registry returns the sink's metric registry (nil for a nil sink).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.registry
}

// Counter fetches (or registers) a counter. Returns a nil-safe handle on a
// nil sink. Labels are alternating key/value pairs.
func (s *Sink) Counter(name string, labels ...string) *Counter {
	if s == nil {
		return nil
	}
	return s.registry.Counter(name, labels...)
}

// Gauge fetches (or registers) a gauge. Nil-safe on a nil sink.
func (s *Sink) Gauge(name string, labels ...string) *Gauge {
	if s == nil {
		return nil
	}
	return s.registry.Gauge(name, labels...)
}

// Histogram fetches (or registers) a histogram with the given upper
// bounds (nil picks DefBuckets). Nil-safe on a nil sink.
func (s *Sink) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if s == nil {
		return nil
	}
	return s.registry.Histogram(name, buckets, labels...)
}
