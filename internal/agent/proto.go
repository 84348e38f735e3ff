// Package agent implements the Dynamo agent (paper §III-B): a lightweight
// request-handler daemon on every server that reads power (from a sensor
// or an estimation model), executes capping/uncapping commands through the
// platform's RAPL backend, and reports status to its leaf controller. All
// intelligence lives in the controllers; the agent is deliberately simple
// (paper §VI, "keep the design simple to achieve reliability at scale").
package agent

import "dynamo/internal/wire"

// Method names served by the agent.
const (
	MethodReadPower  = "Agent.ReadPower"
	MethodSetCap     = "Agent.SetCap"
	MethodClearCap   = "Agent.ClearCap"
	MethodRenewLease = "Agent.RenewLease"
)

// ReadPowerRequest is the body of a pull. LeaseNanos, when nonzero,
// renews the lease of the cap the agent holds for that TTL, so a leaf
// keeps its caps alive with the pull it sends every cycle anyway (paper
// §III-E: a cap must not outlive its controller). It is a trailing field,
// so an empty body is a plain read. It is also the body of RenewLease,
// which the agent still serves, answering with a CapResponse (OK=false: no
// cap held), so that a controller that renews that way keeps its caps
// through a rolling upgrade.
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

// ReadPowerResponse reports the server's power and identity. Identity
// fields ride along so the leaf controller can maintain server metadata
// for priority grouping and failure estimation without a separate
// inventory service.
type ReadPowerResponse struct {
	// TotalWatts is the current total power draw.
	TotalWatts float64
	// Breakdown components (zero when the platform cannot decompose).
	CPUWatts, MemoryWatts, OtherWatts, ACDCLossWatts float64
	// HasSensor is false when TotalWatts is an estimate.
	HasSensor bool
	// CPUUtil is the current CPU utilization in [0,1].
	CPUUtil float64
	// Service and Generation identify the workload and hardware.
	Service    string
	Generation string
	// CapWatts / Capped report the active RAPL limit.
	CapWatts float64
	Capped   bool
}

// MarshalWire implements wire.Message.
func (m *ReadPowerResponse) MarshalWire(e *wire.Encoder) {
	e.Float64(m.TotalWatts)
	e.Float64(m.CPUWatts)
	e.Float64(m.MemoryWatts)
	e.Float64(m.OtherWatts)
	e.Float64(m.ACDCLossWatts)
	e.Bool(m.HasSensor)
	e.Float64(m.CPUUtil)
	e.String(m.Service)
	e.String(m.Generation)
	e.Float64(m.CapWatts)
	e.Bool(m.Capped)
}

// UnmarshalWire implements wire.Message.
func (m *ReadPowerResponse) UnmarshalWire(d *wire.Decoder) error {
	m.TotalWatts = d.Float64()
	m.CPUWatts = d.Float64()
	m.MemoryWatts = d.Float64()
	m.OtherWatts = d.Float64()
	m.ACDCLossWatts = d.Float64()
	m.HasSensor = d.Bool()
	m.CPUUtil = d.Float64()
	// Keep the strings m already holds when the wire agrees with them: a
	// controller decodes every pull of a server into the same message.
	m.Service = d.StringKeep(m.Service)
	m.Generation = d.StringKeep(m.Generation)
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
