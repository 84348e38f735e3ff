package agent

import (
	"fmt"
	"sync/atomic"
	"time"

	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// Agent is one server's Dynamo agent. It is a thin request handler over
// the platform layer; it keeps no policy and never talks to other agents
// (paper §III-A).
type Agent struct {
	id   string
	plat platform.Platform
	// Operation counters, indexed by op. Atomic so Stats can be read from
	// any goroutine without the request path taking a lock.
	ops [numOps]atomic.Uint32
	x   *extras // nil until EnableLease or SetTelemetry
	// resp is the ReadPower reply, which every read rewrites (rpc.Handler).
	resp ReadPowerResponse
}

// extras is what only some agents carry, behind one pointer so that an
// agent with neither lease nor telemetry stays in the 96-byte size class.
type extras struct {
	// Cap-lease fail-safe (paper §III-E: capping must not survive
	// controller death). All lease fields except leaseExpiries are
	// loop-confined: handlers run on the loop (in-proc transport or
	// rpc.LoopHandler), so timer arm/stop never races.
	loop          simclock.Loop
	leaseTTL      time.Duration
	lease         simclock.Timer // re-armed by every SetCap and every renewal
	leaseLimit    power.Watts    // the limit the lease guards
	expire        func()         // a.expireLease, bound once
	onLeaseExpire func(id string, limit power.Watts)
	leaseExpiries atomic.Uint64
	tel           *agentInstr // nil when telemetry is disabled
}

func (a *Agent) extras() *extras {
	if a.x == nil {
		a.x = &extras{}
	}
	return a.x
}

// tel returns the agent's instruments, nil when telemetry is disabled.
func (a *Agent) tel() *agentInstr {
	if a.x == nil {
		return nil
	}
	return a.x.tel
}

// capOK is every successful cap, uncap or renewal reply; it is immutable.
var capOK = &CapResponse{OK: true}

// op names one of the agent's operation counters.
type op int

const (
	opRead op = iota
	opCap
	opUncap
	opErr
	numOps
)

// agentInstr holds one agent's telemetry instruments. Handles are fetched
// once; the request path is atomic increments plus two clock reads.
type agentInstr struct {
	ops                  [numOps]*telemetry.Counter
	leaseExp, leaseRenew *telemetry.Counter
	readDur, capDur      *telemetry.Histogram
}

// SetTelemetry attaches metric instruments to this agent, labeled by
// server ID. Call before the agent starts serving requests; a nil or
// disabled sink leaves telemetry off (no per-request clock reads).
func (a *Agent) SetTelemetry(s *telemetry.Sink) {
	if !s.Enabled() {
		return
	}
	lb := []string{"server", a.id}
	a.extras().tel = &agentInstr{
		ops: [numOps]*telemetry.Counter{
			opRead:  s.Counter("dynamo_agent_reads_total", lb...),
			opCap:   s.Counter("dynamo_agent_caps_total", lb...),
			opUncap: s.Counter("dynamo_agent_uncaps_total", lb...),
			opErr:   s.Counter("dynamo_agent_errors_total", lb...),
		},
		leaseExp:   s.Counter("dynamo_agent_lease_expiries_total", lb...),
		leaseRenew: s.Counter("dynamo_agent_lease_renewals_total", lb...),
		readDur:    s.Histogram("dynamo_agent_read_duration_seconds", nil, lb...),
		capDur:     s.Histogram("dynamo_agent_cap_duration_seconds", nil, lb...),
	}
}

// EnableLease arms the cap-lease fail-safe: every accepted SetCap starts
// (and every renewing ReadPower or RenewLease refreshes) a TTL timer on
// loop; if it fires before the next renewal, the agent releases its power
// limit on the assumption that the controller died mid-capping, and
// reports through onExpire (which runs on the loop goroutine; may be nil).
// defaultTTL applies to SetCaps that carry no lease of their own; zero
// means such caps are not guarded. A cap the platform already holds, one
// an earlier agent process set for a controller that may be gone, gets
// the default TTL too, armed through loop.Post. Call before the agent
// starts serving.
func (a *Agent) EnableLease(loop simclock.Loop, defaultTTL time.Duration, onExpire func(id string, limit power.Watts)) {
	x := a.extras()
	x.loop, x.leaseTTL, x.onLeaseExpire, x.expire = loop, defaultTTL, onExpire, a.expireLease
	if _, capped := a.plat.PowerLimit(); capped && defaultTTL > 0 {
		loop.Post(func() {
			if limit, capped := a.plat.PowerLimit(); capped {
				a.armLease(0, limit)
			}
		})
	}
}

// LeaseExpiries returns how many caps this agent has released because
// their lease went unrenewed.
func (a *Agent) LeaseExpiries() uint64 {
	if a.x == nil {
		return 0
	}
	return a.x.leaseExpiries.Load()
}

// New creates an agent for a server. The third parameter, the hardware
// generation, is ignored: no reading carries it since no controller reads
// it (it stays until bench/probes.go may change; see ROADMAP).
func New(id, service, _ string, plat platform.Platform) *Agent {
	return &Agent{id: id, plat: plat, resp: ReadPowerResponse{Service: service}}
}

// Stats returns the operation counters (reads, caps, uncaps, errors).
func (a *Agent) Stats() (reads, caps, uncaps, errs uint64) {
	return uint64(a.ops[opRead].Load()), uint64(a.ops[opCap].Load()), uint64(a.ops[opUncap].Load()), uint64(a.ops[opErr].Load())
}

func (a *Agent) count(o op) {
	a.ops[o].Add(1)
	if t := a.tel(); t != nil {
		t.ops[o].Inc()
	}
}

// Handler returns the RPC dispatch function for this agent.
func (a *Agent) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodReadPower, MethodRenewLease:
			var d wire.Decoder
			var req ReadPowerRequest
			d.Reset(body)
			if err := req.UnmarshalWire(&d); err != nil {
				a.count(opErr)
				return nil, err
			}
			ttl := time.Duration(req.LeaseNanos)
			if method == MethodRenewLease {
				// Rejected without a cap, so the controller learns its view
				// is stale.
				if !a.renew(ttl) {
					return &CapResponse{OK: false, Msg: "no active cap"}, nil
				}
				return capOK, nil
			}
			if ttl > 0 {
				a.renew(ttl)
			}
			return a.readPower()
		case MethodSetCap:
			var d wire.Decoder
			var req SetCapRequest
			d.Reset(body)
			if err := req.UnmarshalWire(&d); err != nil {
				a.count(opErr)
				return nil, err
			}
			return a.setCap(req.LimitWatts, time.Duration(req.LeaseNanos))
		case MethodClearCap:
			return a.clearCap()
		default:
			a.count(opErr)
			return nil, fmt.Errorf("agent %s: unknown method %q", a.id, method)
		}
	}
}

func (a *Agent) readPower() (wire.Message, error) {
	if t := a.tel(); t != nil {
		start := time.Now()
		defer func() { t.readDur.Observe(time.Since(start).Seconds()) }()
	}
	b, err := a.plat.ReadPower()
	if err != nil {
		a.count(opErr)
		return nil, fmt.Errorf("agent %s: %w", a.id, err)
	}
	a.count(opRead)
	cap, capped := a.plat.PowerLimit()
	r := &a.resp
	r.TotalWatts, r.CapWatts, r.Capped = float64(b.Total), float64(cap), capped
	return r, nil
}

func (a *Agent) setCap(limitWatts float64, lease time.Duration) (wire.Message, error) {
	if t := a.tel(); t != nil {
		start := time.Now()
		defer func() { t.capDur.Observe(time.Since(start).Seconds()) }()
	}
	if limitWatts <= 0 {
		a.count(opErr)
		return &CapResponse{OK: false, Msg: "non-positive power limit"}, nil
	}
	if err := a.plat.SetPowerLimit(power.Watts(limitWatts)); err != nil {
		a.count(opErr)
		return &CapResponse{OK: false, Msg: err.Error()}, nil
	}
	a.count(opCap)
	a.armLease(lease, power.Watts(limitWatts))
	return capOK, nil
}

func (a *Agent) clearCap() (wire.Message, error) {
	if t := a.tel(); t != nil {
		start := time.Now()
		defer func() { t.capDur.Observe(time.Since(start).Seconds()) }()
	}
	if err := a.plat.ClearPowerLimit(); err != nil {
		a.count(opErr)
		return &CapResponse{OK: false, Msg: err.Error()}, nil
	}
	a.stopLease()
	a.count(opUncap)
	return capOK, nil
}

// renew refreshes the cap lease without changing the limit, for a
// renewing pull and for RenewLease alike. It reports whether the agent
// held a cap to renew.
func (a *Agent) renew(ttl time.Duration) bool {
	limit, capped := a.plat.PowerLimit()
	if !capped {
		return false
	}
	a.armLease(ttl, limit)
	if t := a.tel(); t != nil {
		t.leaseRenew.Inc()
	}
	return true
}

// armLease (re)starts the lease timer. ttl <= 0 falls back to the
// default TTL; no loop or no TTL means the cap is unguarded. Runs on the
// loop goroutine (handler context), as simclock timers require.
func (a *Agent) armLease(ttl time.Duration, limit power.Watts) {
	x := a.x
	if x == nil || x.loop == nil {
		return
	}
	if ttl <= 0 {
		ttl = x.leaseTTL
	}
	if ttl <= 0 {
		a.stopLease()
		return
	}
	x.leaseLimit = limit
	x.loop.Arm(&x.lease, ttl, x.expire)
}

func (a *Agent) stopLease() {
	if a.x != nil && a.x.loop != nil {
		a.x.loop.Cancel(&a.x.lease)
	}
}

// expireLease fires when a cap outlives its lease: release the limit —
// the fail-safe against a dead controller leaving servers throttled —
// and surface the event.
func (a *Agent) expireLease() {
	x := a.x
	if _, capped := a.plat.PowerLimit(); !capped {
		return // cap already cleared through the normal path
	}
	if err := a.plat.ClearPowerLimit(); err != nil {
		a.count(opErr)
		return
	}
	x.leaseExpiries.Add(1)
	if x.tel != nil {
		x.tel.leaseExp.Inc()
	}
	if x.onLeaseExpire != nil {
		x.onLeaseExpire(a.id, x.leaseLimit)
	}
}
