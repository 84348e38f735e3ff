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
	Stop()
	Running() bool
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
	// PingInterval is the mean interval between health probes.
	PingInterval time.Duration
	// PingJitterFrac spreads each probe interval uniformly within
	// ±frac of PingInterval, so a fleet of backups does not probe in
	// lockstep and a single transient network hiccup cannot eat the same
	// probe of every pair. Default 0.1; values above 0.5 are clamped.
	PingJitterFrac float64
	// JitterSeed seeds the jitter sequence (deterministic in simulation).
	// Default 1.
	JitterSeed int64
	// FailThreshold is the number of consecutive failed probes before the
	// backup takes over. A single dropped call never promotes: the
	// default requires 3 consecutive misses.
	FailThreshold int
	// PingTimeout bounds each health probe.
	PingTimeout time.Duration
	// Store, when set, is where the promoted backup adopts the failed
	// primary's checkpointed state from: the decision journal, cycle
	// counter, and band/PID internals replayed from the replicated
	// stream, and the stream's epoch bumped so any still-running zombie
	// primary is fenced on its next checkpoint write. When nil the backup
	// starts fresh (journal empty, cycles at zero).
	Store statestore.Source
	// AdoptTimeout bounds the state-store adoption call on promotion.
	// Default PingTimeout.
	AdoptTimeout time.Duration
	// Alerts receives failover events.
	Alerts AlertFunc
	// Telemetry instruments promotions (nil disables).
	Telemetry *telemetry.Sink
	// OnPromoted, when set, runs after the backup has adopted state and
	// started (daemons use it to rebind listeners or flip routing).
	OnPromoted func()
}

func (c *FailoverConfig) fillDefaults() {
	if c.PingInterval <= 0 {
		c.PingInterval = 3 * time.Second
	}
	if c.PingJitterFrac == 0 {
		c.PingJitterFrac = 0.1
	}
	if c.PingJitterFrac < 0 {
		c.PingJitterFrac = 0
	}
	if c.PingJitterFrac > 0.5 {
		c.PingJitterFrac = 0.5
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.PingInterval / 2
	}
	if c.AdoptTimeout <= 0 {
		c.AdoptTimeout = c.PingTimeout
	}
}

// Failover supervises a primary controller and promotes the backup when
// the primary stops responding to health probes. On promotion the backup
// adopts the primary's recoverable state from the replicated state store
// (never from a direct reference to the primary instance — the primary is
// presumed dead or unreachable), and the adoption bumps the stream epoch
// so a zombie primary's late checkpoint writes are rejected.
type Failover struct {
	cfg      FailoverConfig
	loop     simclock.Loop
	net      *rpc.Network // nil when probing over TCP
	deviceID string
	backup   Controller

	probe rpc.Client
	rng   *rand.Rand
	timer *simclock.Timer

	active   bool
	inflight bool
	misses   int
	promoted bool

	promotions *telemetry.Counter
	adoptFails *telemetry.Counter
}

// NewFailover wires a backup to watch the controller currently registered
// at CtrlAddr(deviceID) on an in-process network. The primary must already
// be registered and started by the caller. On promotion the backup's
// handler replaces the primary's registration.
func NewFailover(loop simclock.Loop, net *rpc.Network, deviceID string, backup Controller, cfg FailoverConfig) *Failover {
	f := NewFailoverProbe(loop, net.Dial(CtrlAddr(deviceID)), deviceID, backup, cfg)
	f.net = net
	return f
}

// NewFailoverProbe is the transport-agnostic constructor: probe is any
// client reaching the primary's control handler (a TCP client for daemon
// deployments). The caller is responsible for routing after promotion
// (cfg.OnPromoted).
func NewFailoverProbe(loop simclock.Loop, probe rpc.Client, deviceID string, backup Controller, cfg FailoverConfig) *Failover {
	cfg.fillDefaults()
	f := &Failover{
		cfg:      cfg,
		loop:     loop,
		deviceID: deviceID,
		backup:   backup,
		probe:    probe,
		rng:      noise.New(cfg.JitterSeed),
	}
	if cfg.Telemetry.Enabled() {
		lb := []string{"device", deviceID}
		f.promotions = cfg.Telemetry.Counter("dynamo_failover_promotions_total", lb...)
		f.adoptFails = cfg.Telemetry.Counter("dynamo_failover_adoption_failures_total", lb...)
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
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
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
	d := f.cfg.PingInterval
	if frac := f.cfg.PingJitterFrac; frac > 0 {
		d = time.Duration(float64(d) * (1 + frac*(2*f.rng.Float64()-1)))
	}
	f.timer = f.loop.After(d, f.check)
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
	f.probe.Call(MethodCtrlPing, rpc.Empty, f.cfg.PingTimeout, func(resp []byte, err error) {
		f.inflight = false
		if !f.active || f.promoted {
			return
		}
		healthy := false
		if err == nil {
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
		f.misses++
		if f.misses >= f.cfg.FailThreshold {
			f.promote()
			return
		}
		f.scheduleProbe()
	})
}

// promote adopts the failed primary's state from the store and starts the
// backup. Adoption itself fences the stream: the store bumps the epoch, so
// a zombie primary's next checkpoint write fails with ErrFenced and the
// zombie stops actuating.
func (f *Failover) promote() {
	f.promoted = true
	f.active = false
	if f.cfg.Store == nil {
		f.finish(0, 0, false)
		return
	}
	f.cfg.Store.AdoptState(f.deviceID, f.backup.DeviceID(), f.cfg.AdoptTimeout,
		func(res statestore.AdoptResult, err error) {
			if err != nil || !res.Found {
				if f.adoptFails != nil && err != nil {
					f.adoptFails.Inc()
				}
				if err != nil {
					f.cfg.Alerts.emit(f.loop.Now(), AlertWarning, f.backup.DeviceID(),
						"state-store adoption failed (%v); backup starts fresh", err)
				}
				f.finish(0, 0, false)
				return
			}
			recs, last, ok := ReplayCheckpoints(res.Entries)
			if ok {
				f.backup.AdoptJournal(recs, last.Cycles)
				f.backup.AdoptInternals(last)
			}
			if w := f.backup.CheckpointWriter(); w != nil {
				w.Install(res.Epoch, res.NextSeq)
			}
			f.finish(len(recs), res.Epoch, ok)
		})
}

// finish completes the promotion: route, start, announce.
func (f *Failover) finish(adopted int, epoch uint64, fromStore bool) {
	if f.net != nil {
		f.net.Register(CtrlAddr(f.deviceID), f.backup.Handler())
	}
	f.backup.Start()
	if f.promotions != nil {
		f.promotions.Inc()
	}
	now := f.loop.Now()
	if f.cfg.Telemetry.Enabled() {
		f.cfg.Telemetry.Emit(telemetry.EventPromotion, f.backup.DeviceID(), f.backup.Cycles(), now,
			"backup promoted for %s (adopted %d records, epoch %d)", f.deviceID, adopted, epoch)
	}
	if fromStore {
		f.cfg.Alerts.emit(now, AlertCritical, f.backup.DeviceID(),
			"primary controller unresponsive for %d probes; backup promoted (%d journal records adopted from state store, epoch %d)",
			f.misses, adopted, epoch)
	} else {
		f.cfg.Alerts.emit(now, AlertCritical, f.backup.DeviceID(),
			"primary controller unresponsive for %d probes; backup promoted with fresh state (no store)",
			f.misses)
	}
	if f.cfg.OnPromoted != nil {
		f.cfg.OnPromoted()
	}
}
