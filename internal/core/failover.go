package core

import (
	"math/rand/v2"
	"time"

	"dynamo/internal/noise"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// Controller is the common surface of Leaf and Upper used by the failover
// machinery.
type Controller interface {
	DeviceID() string
	Start()
	// StartPromoted starts a standby taking over from a failed primary:
	// its first cycle runs at once and renews every cap lease.
	StartPromoted()
	Stop()
	Running() bool
	Status(lastN int) ControllerStatus
	Handler() rpc.Handler
	// Cycles and Journal expose the decision history for inspection.
	Cycles() uint64
	Journal() *Journal
	// AdoptJournal seeds the controller with a predecessor's decision
	// records and cycle counter so it resumes numbering instead of
	// restarting at zero. Must be called before Start.
	AdoptJournal(recs []DecisionRecord, cycles uint64)
	// AdoptInternals restores band/PID internals from a predecessor's
	// final checkpoint. Must be called before Start.
	AdoptInternals(ck ControllerCheckpoint)
	// CheckpointWriter returns the controller's state-store writer (nil
	// when checkpointing is disabled).
	CheckpointWriter() *statestore.Writer
}

// Compile-time interface checks.
var (
	_ Controller = (*Leaf)(nil)
	_ Controller = (*Upper)(nil)
)

// FailoverConfig configures a primary/backup controller pair (paper
// §III-E: "we use a redundant backup controller that resides in a
// different location and can take control as soon as the primary
// controller fails").
type FailoverConfig struct {
	// PingInterval is the mean interval between health probes (default
	// 3 s). Each probe, and the state-store adoption on promotion, is
	// bounded by half of it.
	PingInterval time.Duration
	// Store, when set, is where the promoted backup adopts the failed
	// primary's checkpointed state from: the decision journal, cycle
	// counter, and band/PID internals replayed from the replicated
	// stream, and the stream's epoch bumped so any still-running zombie
	// primary is fenced on its next checkpoint write. When nil the backup
	// starts fresh (journal empty, cycles at zero).
	Store statestore.Source
	// Alerts receives failover events.
	Alerts AlertFunc
	// Telemetry instruments promotions (nil disables).
	Telemetry *telemetry.Sink
	// OnPromoted, when set, runs after the backup has adopted state and
	// started (daemons use it to rebind listeners or flip routing).
	OnPromoted func()
}

const (
	// probeJitterFrac spreads each probe interval uniformly within ±10%
	// of PingInterval, so a fleet of backups does not probe in lockstep
	// and one transient network hiccup cannot eat the same probe of every
	// pair. Each Failover draws from a stream seeded by the supervised
	// device's ID.
	probeJitterFrac = 0.1
	// failThreshold is the number of consecutive failed probes before the
	// backup takes over: a single dropped call never promotes.
	failThreshold = 3
)

// FailoverDetectionBound is the longest a leaf's caps can go unrenewed
// across a failover, so the shortest cap lease that outlives one. The
// primary can die just before a pull, one poll after its last renewal;
// its last healthy probe came at most then, and failThreshold jittered
// probes later the backup promotes. One more probe interval covers the
// last probe's timeout and the adoption, each bounded by half a probe,
// before the promoted leaf's first pull renews every lease. At a 3 s
// probe and poll it is 16.2 s.
func FailoverDetectionBound(probe, poll time.Duration) time.Duration {
	return time.Duration(float64((failThreshold+1)*probe)*(1+probeJitterFrac)) + poll
}

// Failover supervises a primary and promotes a set of standby controllers
// when the primary stops responding to health probes: one backup, or every
// controller of a backup suite. On promotion each standby adopts its
// primary's recoverable state from the replicated state store (never from
// a direct reference to the primary instance — the primary is presumed
// dead or unreachable), and each adoption bumps that stream's epoch so a
// zombie primary's late checkpoint writes are rejected.
type Failover struct {
	cfg  FailoverConfig
	loop simclock.Loop
	net  *rpc.Network // nil when probing over TCP
	set  []standby

	probe  rpc.Client
	rng    *rand.Rand
	timer  simclock.Timer
	tick   func()                       // f.check, bound once
	onPong func(resp []byte, err error) // f.pong, bound once

	active   bool
	inflight bool
	heard    bool // some probe has had a reply
	misses   int
	promoted bool
}

// standby is one controller a Failover promotes: its failover series and
// what its promotion adopted.
type standby struct {
	ctrl                   Controller
	promotions, adoptFails *telemetry.Counter
	records                int
	epoch                  uint64
	fromStore              bool
}

// NewFailover wires ctrls to watch the controller currently registered at
// CtrlAddr of the first one's device on an in-process network. The
// primary must already be registered and started by the caller. On
// promotion each controller's handler replaces the registration at
// CtrlAddr of its own device.
func NewFailover(loop simclock.Loop, net *rpc.Network, ctrls []Controller, cfg FailoverConfig) *Failover {
	f := NewFailoverProbe(loop, net.Dial(CtrlAddr(ctrls[0].DeviceID())), ctrls, cfg)
	f.net = net
	return f
}

// NewFailoverProbe is the transport-agnostic constructor: probe is any
// client reaching the primary's control handler (a TCP client for daemon
// deployments). ctrls are promoted together, in order. The caller is
// responsible for routing after promotion (cfg.OnPromoted).
func NewFailoverProbe(loop simclock.Loop, probe rpc.Client, ctrls []Controller, cfg FailoverConfig) *Failover {
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = 3 * time.Second
	}
	f := &Failover{
		cfg:   cfg,
		loop:  loop,
		set:   make([]standby, len(ctrls)),
		probe: probe,
		rng:   noise.New(int64(noise.FNV64a(ctrls[0].DeviceID()))),
	}
	f.tick, f.onPong = f.check, f.pong
	for i, c := range ctrls {
		f.set[i] = standby{ctrl: c,
			promotions: cfg.Telemetry.Counter("dynamo_failover_promotions_total", "device", c.DeviceID()),
			adoptFails: cfg.Telemetry.Counter("dynamo_failover_adoption_failures_total", "device", c.DeviceID()),
		}
	}
	return f
}

// Start begins health probing.
func (f *Failover) Start() {
	if f.active || f.promoted {
		return
	}
	f.active = true
	f.scheduleProbe()
}

// Stop halts probing.
func (f *Failover) Stop() {
	f.active = false
	f.loop.Cancel(&f.timer)
}

// Promoted reports whether the backup has taken over.
func (f *Failover) Promoted() bool { return f.promoted }

// scheduleProbe arms the next probe at PingInterval ± jitter. A
// self-rescheduling timer chain rather than a fixed ticker, so every
// interval gets a fresh jitter draw.
func (f *Failover) scheduleProbe() {
	if !f.active || f.promoted {
		return
	}
	d := time.Duration(float64(f.cfg.PingInterval) * (1 + probeJitterFrac*(2*f.rng.Float64()-1)))
	f.loop.Arm(&f.timer, d, f.tick)
}

func (f *Failover) check() {
	if !f.active || f.promoted {
		return
	}
	if f.inflight {
		// The previous probe has not resolved yet (slow network, long
		// timeout). Don't stack probes and don't count a miss the probe
		// itself will account for; just try again next interval.
		f.scheduleProbe()
		return
	}
	f.inflight = true
	f.probe.Call(MethodCtrlPing, rpc.Empty, f.cfg.PingInterval/2, f.onPong)
}

// pong counts a probe's outcome: a healthy reply clears the misses, and
// failThreshold misses in a row promote. A miss counts only after some
// probe has had a reply, so a backup started before its primary waits.
func (f *Failover) pong(resp []byte, err error) {
	f.inflight = false
	if !f.active || f.promoted {
		return
	}
	healthy := false
	if err == nil {
		f.heard = true
		var pong CtrlPingResponse
		if wire.Unmarshal(resp, &pong) == nil {
			healthy = pong.Healthy
		}
	}
	if healthy {
		f.misses = 0
		f.scheduleProbe()
		return
	}
	if f.heard {
		f.misses++
	}
	if f.misses >= failThreshold {
		f.promote()
		return
	}
	f.scheduleProbe()
}

// promote adopts each standby's state from the store, then starts them.
// Adoption itself fences each stream: the store bumps the epoch, so a
// zombie primary's next checkpoint write fails with ErrFenced and the
// zombie stops actuating.
func (f *Failover) promote() {
	f.promoted = true
	f.active = false
	f.adopt(0)
}

// adopt adopts the stream named by set[i]'s device, then each later
// standby's in order, and finishes the promotion after the last.
func (f *Failover) adopt(i int) {
	if i == len(f.set) || f.cfg.Store == nil {
		f.finish()
		return
	}
	s := &f.set[i]
	id := s.ctrl.DeviceID()
	f.cfg.Store.AdoptState(id, id, f.cfg.PingInterval/2, func(res statestore.AdoptResult, err error) {
		if err != nil {
			s.adoptFails.Inc()
			f.cfg.Alerts.emit(Alert{Time: f.loop.Now(), Kind: KindAdoptionFailed, Controller: id, Err: err})
		} else if res.Found {
			recs, last, ok := ReplayCheckpoints(res.Entries)
			if ok {
				s.ctrl.AdoptJournal(recs, last.Cycles)
				s.ctrl.AdoptInternals(last)
			}
			if w := s.ctrl.CheckpointWriter(); w != nil {
				w.Install(res.Epoch, res.NextSeq)
			}
			s.records, s.epoch, s.fromStore = len(recs), res.Epoch, ok
		}
		f.adopt(i + 1)
	})
}

// finish completes the promotion: route and start every standby in order,
// each with its first cycle due at once, announce each, then run
// OnPromoted once.
func (f *Failover) finish() {
	for _, s := range f.set {
		if f.net != nil {
			f.net.Register(CtrlAddr(s.ctrl.DeviceID()), s.ctrl.Handler())
		}
		s.ctrl.StartPromoted()
	}
	now := f.loop.Now()
	for _, s := range f.set {
		s.promotions.Inc()
		a := Alert{Time: now, Cycle: s.ctrl.Cycles(), Kind: KindPromotedFresh, Controller: s.ctrl.DeviceID(), Count: f.misses}
		if s.fromStore {
			a.Kind, a.Of, a.Epoch = KindPromoted, s.records, s.epoch
		}
		f.cfg.Alerts.emit(a)
	}
	if f.cfg.OnPromoted != nil {
		f.cfg.OnPromoted()
	}
}
