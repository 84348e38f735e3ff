package suite

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
)

// Daemon is what dynamo-suited takes on its command line besides the
// configuration and the metrics address: Build's Options (Deploy sets
// their Store), where the state store is served, the peers it ships to
// every StoreInterval, the default RPC deadline, and a backup's primary.
type Daemon struct {
	Options
	StoreListen   string
	StorePeers    []string
	StoreInterval time.Duration
	RPCTimeout    time.Duration
	Primary       string
}

// DefaultDaemon returns dynamo-suited's defaults: a primary that neither
// serves nor ships its state store, whose cap lease outlives a failover
// at the default 3 s poll.
func DefaultDaemon() Daemon {
	return Daemon{StoreInterval: time.Second, RPCTimeout: 2 * time.Second, Options: Options{
		Retry:               core.RetryConfig{MaxRetries: 2, Backoff: 100 * time.Millisecond, JitterFrac: 0.2, Seed: 1},
		QuarantineThreshold: 3,
		CapLeaseTTL:         core.FailoverDetectionBound(defaultPoll, defaultPoll),
	}}
}

// defaultPoll is a controller's poll when its configuration sets none. A
// backup probes its primary at the suite's shortest poll, at most this.
const defaultPoll = 3 * time.Second

// Transport is how a deployment reaches other processes and is reached
// by them. Peers start and restart in any order, so Dial's clients must
// reconnect on their own. Serve exposes h at addr until stop runs.
type Transport struct {
	Dial  Dialer
	Serve func(addr string, h rpc.Handler) (bound string, stop func(), err error)
}

// TCPTransport is the daemons' transport: rpc.RedialTCP clients, and
// servers that run each handler on loop.
func TCPTransport(loop simclock.Loop, tel *telemetry.Sink) Transport {
	return Transport{
		Dial: func(addr string) (rpc.Client, error) {
			cl := rpc.RedialTCP(addr, loop)
			cl.SetTelemetry(tel)
			return cl, nil
		},
		Serve: func(addr string, h rpc.Handler) (string, func(), error) {
			srv := rpc.NewTCPServer(rpc.LoopHandler(loop, h))
			srv.SetTelemetry(tel)
			bound, err := srv.Listen(addr)
			return bound, func() { srv.Close() }, err
		},
	}
}

// Deployment is a suite running as dynamo-suited runs it. Failover
// supervises the primary on a backup, and is nil on a primary.
type Deployment struct {
	*Assembly
	Failover *core.Failover

	loop          simclock.Loop
	starts, stops []func() // run on the loop
	unserve       []func()
}

// Deploy builds the suite with its state store and starts it on loop:
// the controllers on a primary, the failover probe on a backup. Every
// dialed client gets d.RPCTimeout as its default deadline. One shipper
// replicates the store to d.StorePeers; a peer that never answers holds
// back at most statestore.DefaultMaxRetain entries per device. A backup
// probes d.Primary at the suite's shortest poll, at most 3 s. A cap lease
// shorter than core.FailoverDetectionBound at that probe and the longest
// leaf poll is refused, on either side of a pair: the caps a primary sets
// must outlive its backup's detection. logger and tel may be nil; Deploy
// may be called off the loop goroutine.
func Deploy(loop simclock.Loop, cfg *config.Suite, d Daemon, tr Transport, logger *telemetry.Logger, tel *telemetry.Sink) (*Deployment, error) {
	probeEvery, leafPoll := defaultPoll, time.Duration(0)
	for _, c := range cfg.Controllers {
		p := c.Poll()
		if p <= 0 {
			p = defaultPoll
		}
		probeEvery = min(probeEvery, p)
		if c.Level == "leaf" {
			leafPoll = max(leafPoll, p)
		}
	}
	if bound := core.FailoverDetectionBound(probeEvery, leafPoll); d.CapLeaseTTL > 0 && d.CapLeaseTTL < bound {
		return nil, fmt.Errorf("suite: cap lease %v is shorter than the failover detection bound %v (probe %v, leaf poll %v)",
			d.CapLeaseTTL, bound, probeEvery, leafPoll)
	}
	// Every client dialed here or in Build, for Stop, or a Deploy that
	// fails after Build, to close.
	var mu sync.Mutex
	var dialed []rpc.Client
	closeDialed := func() {
		for _, cl := range dialed {
			cl.Close()
		}
	}
	dial := func(addr string) (rpc.Client, error) {
		cl, err := tr.Dial(addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dialed = append(dialed, cl)
		mu.Unlock()
		return rpc.WithDefaultTimeout(cl, d.RPCTimeout), nil
	}
	// Alerts go to the log at their severity, with their loop time.
	alerts := func(a core.Alert) {
		lvl := telemetry.LevelInfo
		switch a.Level {
		case core.AlertWarning:
			lvl = telemetry.LevelWarning
		case core.AlertCritical:
			lvl = telemetry.LevelError
		}
		logger.Log(lvl, a.Message(), "alert", a.Level, "controller", a.Controller, "uptime", a.Time)
	}
	d.Store = statestore.NewStore(loop, cfg.Name, tel)
	asm, err := Build(loop, cfg, dial, alerts, tel, d.Options)
	if err != nil {
		return nil, err // Build closed what it dialed
	}
	dep := &Deployment{Assembly: asm, loop: loop}
	// A status line per controller every 15 s (an upper's "capped" counts
	// its contracted children).
	status := simclock.NewTicker(loop, 15*time.Second, func() {
		for _, st := range asm.Status(1) {
			logger.Log(telemetry.LevelInfo, "status", "device", st.Device, "agg", power.Watts(st.AggWatts),
				"valid", st.Valid, "capped", st.CappedServers, "cycles", st.Cycles, "effLimit", power.Watts(st.EffLimitWatts))
		}
	})
	dep.starts, dep.stops = []func(){status.Start}, []func(){status.Stop, asm.StopAll}

	if len(d.StorePeers) > 0 {
		peers := make([]statestore.Peer, len(d.StorePeers))
		for i, addr := range d.StorePeers {
			cl, err := dial(addr)
			if err != nil {
				closeDialed()
				return nil, err
			}
			peers[i] = statestore.Peer{Name: addr, Client: cl}
		}
		sh := statestore.NewShipper(loop, d.Store, peers, statestore.ShipperConfig{Interval: d.StoreInterval, Telemetry: tel})
		dep.starts, dep.stops = append(dep.starts, sh.Start), append(dep.stops, sh.Stop)
		logger.Log(telemetry.LevelInfo, "replicating state store", "peers", strings.Join(d.StorePeers, ","), "interval", d.StoreInterval)
	}

	role := "primary"
	if d.Primary == "" {
		dep.starts = append(dep.starts, asm.StartAll)
	} else {
		probe, err := dial(d.Primary)
		if err != nil {
			closeDialed()
			return nil, err
		}
		dep.Failover = core.NewFailoverProbe(loop, probe, asm.Controllers(), core.FailoverConfig{
			PingInterval: probeEvery, Store: d.Store, Alerts: alerts, Telemetry: tel})
		role = "backup"
		dep.starts, dep.stops = append(dep.starts, dep.Failover.Start), append(dep.stops, dep.Failover.Stop)
		logger.Log(telemetry.LevelInfo, "standing by as backup", "primary", d.Primary, "probe", probeEvery)
	}

	// The clients close once nothing that calls through them runs.
	dep.stops = append(dep.stops, closeDialed)

	// Serve last: a served handler may run on the loop at once.
	serve := func(addr string, h rpc.Handler, msg string, kv ...interface{}) error {
		bound, stop, err := tr.Serve(addr, h)
		if err != nil {
			dep.Stop()
			return err
		}
		dep.unserve = append(dep.unserve, stop)
		logger.Log(telemetry.LevelInfo, msg, append(kv, "addr", bound)...)
		return nil
	}
	if d.StoreListen != "" {
		if err := serve(d.StoreListen, d.Store.Handler(), "state store serving"); err != nil {
			return nil, err
		}
	}
	for _, c := range cfg.Controllers {
		if c.Listen == "" {
			continue
		}
		if err := serve(c.Listen, asm.Controller(c.Device).Handler(), "controller exposed", "device", c.Device); err != nil {
			return nil, fmt.Errorf("listen for %s: %w", c.Device, err)
		}
	}
	loop.Post(func() { run(dep.starts) })
	logger.Log(telemetry.LevelInfo, "suite consolidated",
		"suite", cfg.Name, "role", role, "controllers", asm.NumControllers(),
		"leaves", len(asm.Leaves), "uppers", len(asm.Uppers))
	return dep, nil
}

// Stop takes the deployment down as a crash looks to its peers: every
// listener is unserved at once, and the rest stops at the loop's next look
// for work, the dialed clients last. With a TCP transport it must be
// called off the loop goroutine, since unserving waits for the handlers in
// flight.
func (dep *Deployment) Stop() {
	dep.loop.Post(func() { run(dep.stops) })
	run(dep.unserve)
}

func run(fs []func()) {
	for _, f := range fs {
		f()
	}
}
