// Package agent implements the Dynamo agent (paper §III-B): a lightweight
// request-handler daemon on every server that reads power (from a sensor
// or an estimation model), executes capping/uncapping commands through the
// platform's RAPL backend, and reports status to its leaf controller. All
// intelligence lives in the controllers; the agent is deliberately simple
// (paper §VI, "keep the design simple to achieve reliability at scale").
package agent

import (
	"errors"

	"dynamo/internal/wire"
)

// Method names served by the agent.
const (
	MethodReadPower = "Agent.ReadPower"
	MethodSetCap    = "Agent.SetCap"
	MethodClearCap  = "Agent.ClearCap"
)

// MethodRenewLease is not served: a pull carries the renewal
// (ReadPowerRequest), and a controller that still renewed this way cannot
// decode today's reading anyway (DESIGN.md, "Rolling upgrades"). The name
// stays for the benchmark's per-method counters.
const MethodRenewLease = "Agent.RenewLease"

// ReadPowerRequest is the body of a pull. LeaseNanos, when nonzero,
// renews the lease of the cap the agent holds for that TTL, so a leaf
// keeps its caps alive with the pull it sends every cycle anyway (paper
// §III-E: a cap must not outlive its controller). It is a trailing field,
// so an empty body is a plain read.
type ReadPowerRequest struct {
	LeaseNanos uint64
}

// MarshalWire implements wire.Message.
func (m *ReadPowerRequest) MarshalWire(e *wire.Encoder) {
	if m.LeaseNanos > 0 {
		e.Uvarint(m.LeaseNanos)
	}
}

// UnmarshalWire implements wire.Message.
func (m *ReadPowerRequest) UnmarshalWire(d *wire.Decoder) error {
	m.LeaseNanos = 0
	if d.Remaining() > 0 {
		m.LeaseNanos = d.Uvarint()
	}
	return d.Err()
}

// ReadPowerResponse is one reading: what a leaf controller decides from
// (paper §III-C). TotalWatts is summed into the aggregate, Service places
// the server in its priority group and prices its draw when a pull fails,
// and CapWatts/Capped report the active RAPL limit. The service rides along
// so the leaf keeps its server metadata without an inventory service.
type ReadPowerResponse struct {
	// TotalWatts is the current total power draw.
	TotalWatts float64
	// Service names the workload the server runs.
	Service string
	// CapWatts / Capped report the active RAPL limit.
	CapWatts float64
	Capped   bool
}

// readingLayout is the first byte of an encoded reading. A reading in the
// earlier 74-byte layout began with its total watts, a non-negative
// float64 whose first big-endian byte is below 0x80, so a tag at or above
// 0x80 tells the two apart: a controller rejects an earlier agent's reply
// as a failed pull instead of misreading it (DESIGN.md, "Rolling
// upgrades"). 0x80 itself is left out, being the first byte of -0.0.
const readingLayout = 0x81

// ErrReadingLayout is the decode error for a reading that does not start
// with readingLayout.
var ErrReadingLayout = errors.New("agent: reading is not in the tagged layout")

// MarshalWire implements wire.Message.
func (m *ReadPowerResponse) MarshalWire(e *wire.Encoder) {
	e.Byte(readingLayout)
	e.Float64(m.TotalWatts)
	e.String(m.Service)
	e.Float64(m.CapWatts)
	e.Bool(m.Capped)
}

// UnmarshalWire implements wire.Message. A reply in another layout leaves
// m zeroed and is an error, never a reading.
func (m *ReadPowerResponse) UnmarshalWire(d *wire.Decoder) error {
	if tag := d.Byte(); tag != readingLayout && d.Err() == nil {
		*m = ReadPowerResponse{}
		return ErrReadingLayout
	}
	m.TotalWatts = d.Float64()
	// Keep the string m already holds when the wire agrees with it: a
	// controller decodes every pull of a server into the same message.
	m.Service = d.StringKeep(m.Service)
	m.CapWatts = d.Float64()
	m.Capped = d.Bool()
	return d.Err()
}

// SetCapRequest asks the agent to enforce a total-power limit.
type SetCapRequest struct {
	LimitWatts float64
	// LeaseNanos, when nonzero, bounds how long the cap may outlive its
	// controller: the agent releases the limit (and alerts) unless the
	// lease is renewed within this TTL. Zero means no lease — the cap
	// holds until cleared (or until the agent's own default TTL, if it
	// has one). Encoded as a trailing field so old controllers and new
	// agents interoperate in both directions.
	LeaseNanos uint64
}

// MarshalWire implements wire.Message.
func (m *SetCapRequest) MarshalWire(e *wire.Encoder) {
	e.Float64(m.LimitWatts)
	if m.LeaseNanos > 0 {
		e.Uvarint(m.LeaseNanos)
	}
}

// UnmarshalWire implements wire.Message.
func (m *SetCapRequest) UnmarshalWire(d *wire.Decoder) error {
	m.LimitWatts = d.Float64()
	if d.Remaining() > 0 {
		m.LeaseNanos = d.Uvarint()
	}
	return d.Err()
}

// CapResponse acknowledges a cap/uncap command (paper: the agent "returns
// the status of the operation to the leaf controller").
type CapResponse struct {
	OK  bool
	Msg string
}

// MarshalWire implements wire.Message.
func (m *CapResponse) MarshalWire(e *wire.Encoder) {
	e.Bool(m.OK)
	e.String(m.Msg)
}

// UnmarshalWire implements wire.Message.
func (m *CapResponse) UnmarshalWire(d *wire.Decoder) error {
	m.OK = d.Bool()
	m.Msg = d.String()
	return d.Err()
}
