package telemetry

import "testing"

// BenchmarkTelemetryOverhead prices the hot-path instruments: an enabled
// counter increment and histogram observation against the nil-sink
// (disabled) path the simulator runs with. TestNilSinkPathAllocatesNothing
// asserts the disabled path allocates nothing.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc-enabled", func(b *testing.B) {
		s := NewSink()
		c := s.Counter("bench_total", "device", "rpp1")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe-enabled", func(b *testing.B) {
		s := NewSink()
		h := s.Histogram("bench_seconds", nil, "device", "rpp1")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
	b.Run("nil-sink-disabled", func(b *testing.B) {
		var s *Sink
		c := s.Counter("bench_total")
		g := s.Gauge("bench_watts")
		h := s.Histogram("bench_seconds", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.Set(float64(i))
			h.Observe(0.003)
		}
	})
}
