// Package monitor implements Dynamo's fleet power monitoring (paper §VI:
// "Monitoring is as important as capping. ... we have invested a lot of
// effort into collecting power information and on building monitoring and
// automated alerting tools").
//
// The monitor consumes periodic device observations (power plus limit),
// maintains per-device histories, and produces the reports operators used
// the system for: capacity headroom and stranded power per hierarchy
// level (the "ghost space" the paper's introduction laments), top
// consumers, and early-warning alarms for devices persistently running
// hot before the controllers would ever need to cap.
package monitor

import (
	"fmt"
	"sort"
	"time"

	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/telemetry"
)

// Observation is one device sample.
type Observation struct {
	Device string
	Class  power.DeviceClass
	Power  power.Watts
	Limit  power.Watts
}

// Config tunes alarm behaviour.
type Config struct {
	// HotFrac is the fraction of the limit above which a device is
	// considered hot. Default 0.90.
	HotFrac float64
	// HotFor is how long a device must stay hot before an alarm fires.
	// Default 5 minutes.
	HotFor time.Duration
	// HistoryCap bounds per-device history length (ring semantics are
	// not needed for reports; oldest data is simply retained). Default
	// 4096 samples.
	HistoryCap int
	// Telemetry publishes fleet gauges (per-class draw, headroom, and
	// stranded power) and an alarm counter after every Observe batch.
	// Nil disables publication entirely.
	Telemetry *telemetry.Sink
}

func (c *Config) fill() {
	if c.HotFrac <= 0 {
		c.HotFrac = 0.90
	}
	if c.HotFor <= 0 {
		c.HotFor = 5 * time.Minute
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = 4096
	}
}

// Alarm is an early-warning event for a persistently hot device.
type Alarm struct {
	Device string
	Class  power.DeviceClass
	Since  time.Duration
	At     time.Duration
	Power  power.Watts
	Limit  power.Watts
}

// String implements fmt.Stringer.
func (a Alarm) String() string {
	return fmt.Sprintf("[%v] %s (%v) hot since %v: %v of %v",
		a.At, a.Device, a.Class, a.Since, a.Power, a.Limit)
}

type deviceState struct {
	class   power.DeviceClass
	limit   power.Watts
	history *metrics.Series
	last    power.Watts
	peak    power.Watts

	hotSince time.Duration
	hot      bool
	alarmed  bool
}

// classGauges are the per-hierarchy-level fleet gauges published to
// telemetry: current draw, current headroom (limit − draw), and stranded
// power (limit − observed peak, the paper's "ghost space").
type classGauges struct {
	draw     *telemetry.Gauge
	headroom *telemetry.Gauge
	stranded *telemetry.Gauge
}

// Monitor aggregates fleet power observations.
type Monitor struct {
	cfg     Config
	devices map[string]*deviceState
	order   []string
	alarms  []Alarm

	gauges      map[power.DeviceClass]classGauges
	alarmsTotal *telemetry.Counter
}

// New creates a Monitor.
func New(cfg Config) *Monitor {
	cfg.fill()
	m := &Monitor{cfg: cfg, devices: map[string]*deviceState{}}
	if tel := cfg.Telemetry; tel.Enabled() {
		m.gauges = make(map[power.DeviceClass]classGauges, 4)
		for _, c := range power.Classes() {
			m.gauges[c] = classGauges{
				draw:     tel.Gauge("dynamo_monitor_power_watts", "class", c.String()),
				headroom: tel.Gauge("dynamo_monitor_headroom_watts", "class", c.String()),
				stranded: tel.Gauge("dynamo_monitor_stranded_watts", "class", c.String()),
			}
		}
		m.alarmsTotal = tel.Counter("dynamo_monitor_alarms_total")
	}
	return m
}

// Observe ingests a batch of samples taken at the same instant.
func (m *Monitor) Observe(now time.Duration, obs []Observation) {
	for _, o := range obs {
		st, ok := m.devices[o.Device]
		if !ok {
			st = &deviceState{
				class:   o.Class,
				history: metrics.NewSeries(256),
			}
			m.devices[o.Device] = st
			m.order = append(m.order, o.Device)
		}
		st.limit = o.Limit
		st.last = o.Power
		if o.Power > st.peak {
			st.peak = o.Power
		}
		if st.history.Len() < m.cfg.HistoryCap {
			st.history.Add(now, float64(o.Power))
		}

		hot := o.Limit > 0 && float64(o.Power) >= float64(o.Limit)*m.cfg.HotFrac
		switch {
		case hot && !st.hot:
			st.hot = true
			st.hotSince = now
			st.alarmed = false
		case hot && st.hot:
			if !st.alarmed && now-st.hotSince >= m.cfg.HotFor {
				st.alarmed = true
				m.alarms = append(m.alarms, Alarm{
					Device: o.Device, Class: st.class,
					Since: st.hotSince, At: now,
					Power: o.Power, Limit: o.Limit,
				})
				m.alarmsTotal.Inc()
			}
		default:
			st.hot = false
			st.alarmed = false
		}
	}
	m.publishGauges()
}

// publishGauges pushes per-class fleet draw, headroom, and stranded power
// to the telemetry sink. One O(devices) pass using incrementally tracked
// per-device state (last draw, observed peak) — it deliberately avoids the
// percentile math of HeadroomReport so it is cheap enough to run on every
// Observe batch.
func (m *Monitor) publishGauges() {
	if m.gauges == nil {
		return
	}
	type sums struct{ draw, headroom, stranded power.Watts }
	byClass := map[power.DeviceClass]*sums{}
	for _, id := range m.order {
		st := m.devices[id]
		s, ok := byClass[st.class]
		if !ok {
			s = &sums{}
			byClass[st.class] = s
		}
		s.draw += st.last
		if h := st.limit - st.last; h > 0 {
			s.headroom += h
		}
		if str := st.limit - st.peak; str > 0 {
			s.stranded += str
		}
	}
	for c, g := range m.gauges {
		s := byClass[c]
		if s == nil {
			s = &sums{}
		}
		g.draw.Set(float64(s.draw))
		g.headroom.Set(float64(s.headroom))
		g.stranded.Set(float64(s.stranded))
	}
}

// Alarms returns all alarms raised so far.
func (m *Monitor) Alarms() []Alarm {
	out := make([]Alarm, len(m.alarms))
	copy(out, m.alarms)
	return out
}

// DeviceHistory returns the sample series for a device (nil if unknown).
func (m *Monitor) DeviceHistory(device string) *metrics.Series {
	if st, ok := m.devices[device]; ok {
		return st.history
	}
	return nil
}

// Headroom describes one device's capacity utilization.
type Headroom struct {
	Device string
	Class  power.DeviceClass
	Limit  power.Watts
	// PeakPower is the maximum observed draw.
	PeakPower power.Watts
	// P99Power is the 99th percentile of observed draw.
	P99Power power.Watts
	// Stranded is limit − peak: provisioned capacity that has never been
	// used — the target of oversubscription.
	Stranded power.Watts
}

// HeadroomReport computes per-device headroom, sorted by stranded power
// descending within each class.
func (m *Monitor) HeadroomReport() []Headroom {
	out := make([]Headroom, 0, len(m.order))
	for _, id := range m.order {
		st := m.devices[id]
		if st.history.Len() == 0 {
			continue
		}
		peak := power.Watts(st.history.Max())
		dist := metrics.NewDistribution(st.history.Values())
		h := Headroom{
			Device: id, Class: st.class, Limit: st.limit,
			PeakPower: peak,
			P99Power:  power.Watts(dist.Percentile(99)),
			Stranded:  st.limit - peak,
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Stranded > out[j].Stranded
	})
	return out
}

// StrandedByClass sums stranded power per hierarchy level — the paper's
// "many megawatts of stranded power" freed by oversubscription.
func (m *Monitor) StrandedByClass() map[power.DeviceClass]power.Watts {
	out := map[power.DeviceClass]power.Watts{}
	for _, h := range m.HeadroomReport() {
		if h.Stranded > 0 {
			out[h.Class] += h.Stranded
		}
	}
	return out
}

// TopConsumers returns the n devices of a class with the highest current
// draw relative to their limit.
func (m *Monitor) TopConsumers(class power.DeviceClass, n int) []Headroom {
	var of []Headroom
	for _, id := range m.order {
		st := m.devices[id]
		if st.class != class || st.limit <= 0 {
			continue
		}
		of = append(of, Headroom{
			Device: id, Class: class, Limit: st.limit,
			PeakPower: st.last,
			Stranded:  st.limit - st.last,
		})
	}
	sort.Slice(of, func(i, j int) bool {
		ri := float64(of[i].PeakPower) / float64(of[i].Limit)
		rj := float64(of[j].PeakPower) / float64(of[j].Limit)
		return ri > rj
	})
	if n > len(of) {
		n = len(of)
	}
	return of[:n]
}

// CapacityUtilization returns fleet-wide observed-peak / limit for a
// class, the number the paper improved by 8% through oversubscription.
func (m *Monitor) CapacityUtilization(class power.DeviceClass) float64 {
	var peak, limit power.Watts
	for _, h := range m.HeadroomReport() {
		if h.Class != class {
			continue
		}
		peak += h.PeakPower
		limit += h.Limit
	}
	if limit <= 0 {
		return 0
	}
	return float64(peak) / float64(limit)
}
