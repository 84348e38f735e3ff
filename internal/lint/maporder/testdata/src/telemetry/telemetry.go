package telemetry

// Minimal stand-ins for the real instrument types; maporder matches by
// package-path base and method name.

type Gauge struct{ v float64 }

func (g *Gauge) Set(v float64) { g.v = v }

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }
