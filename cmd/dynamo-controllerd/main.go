// Command dynamo-controllerd runs a leaf power controller as a standalone
// daemon: it pulls power from dynamo-agentd instances over TCP on the
// paper's 3-second cycle, applies the three-band algorithm against the
// device's breaker limit, and serves the controller protocol to an
// optional parent controller.
//
// Usage:
//
//	dynamo-controllerd -device rpp1 -limit 5000 -listen :7090 \
//	    -agents "srv001=web@127.0.0.1:7080,srv002=web@127.0.0.1:7081" \
//	    -metrics-addr :9090
//
// With -metrics-addr set, the daemon exposes Prometheus metrics at
// /metrics, a JSON controller snapshot at /debug/state, and a liveness
// probe at /healthz.
//
// The daemon can participate in replicated-state-store failover. A
// primary checkpoints every decision cycle into its local store and ships
// the stream to peers:
//
//	dynamo-controllerd -device rpp1 ... -store-peers 127.0.0.1:7095
//
// A backup serves its store replica on -store-listen, probes the primary,
// and on sustained probe failure adopts the replicated journal (resuming
// the primary's cycle numbering) and takes over control:
//
//	dynamo-controllerd -device rpp1 ... -backup -primary 127.0.0.1:7090 \
//	    -store-listen :7095
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/suite"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

func main() {
	listen := flag.String("listen", ":7090", "TCP listen address (for a parent controller)")
	device := flag.String("device", "rpp1", "protected power device identifier")
	limit := flag.Float64("limit", 5000, "breaker limit in watts")
	quota := flag.Float64("quota", 0, "power quota in watts (0: none)")
	agents := flag.String("agents", "", "comma-separated id=service@host:port agent list")
	dryRun := flag.Bool("dry-run", false, "compute capping plans without actuating")
	metricsAddr := flag.String("metrics-addr", "", "HTTP exposition address for /metrics, /debug/state, /healthz (empty: disabled)")
	poll := flag.Duration("poll", 0, "decision-cycle poll interval (0: paper default 3s)")
	rpcTimeout := flag.Duration("rpc-timeout", 2*time.Second, "default deadline for outbound RPCs that would otherwise be unbounded")
	rpcRetries := flag.Int("rpc-retries", 2, "bounded retries per failed agent RPC (0: single attempt)")
	rpcRetryBackoff := flag.Duration("rpc-retry-backoff", 100*time.Millisecond, "base backoff between RPC retries (doubles per attempt, jittered)")
	quarantineAfter := flag.Int("quarantine-after", 3, "consecutive failed pulls before an agent is quarantined (0: disabled)")
	capLeaseTTL := flag.Duration("cap-lease-ttl", 12*time.Second, "cap lease attached to SetCap and renewed each cycle (must be > 0)")
	storeListen := flag.String("store-listen", "", "TCP address serving this daemon's state store to peers (empty: not served)")
	storePeers := flag.String("store-peers", "", "comma-separated host:port list of peer state stores to replicate checkpoints to")
	storeInterval := flag.Duration("store-interval", time.Second, "checkpoint replication cadence")
	backup := flag.Bool("backup", false, "run as standby backup: probe -primary and take over on sustained failure")
	primaryAddr := flag.String("primary", "", "primary controller address to probe (required with -backup)")
	failInterval := flag.Duration("failover-interval", 3*time.Second, "mean interval between backup health probes")
	failMisses := flag.Int("failover-misses", 3, "consecutive probe failures before the backup promotes")
	failJitter := flag.Float64("failover-jitter", 0.1, "probe interval jitter fraction (0..0.5)")
	flag.Parse()

	var fc config.FlagCheck
	fc.PositiveFloat("limit", *limit)
	fc.NonNegativeFloat("quota", *quota)
	fc.NonNegativeDuration("poll", *poll)
	fc.NonNegativeDuration("rpc-timeout", *rpcTimeout)
	fc.NonNegativeInt("rpc-retries", *rpcRetries)
	fc.NonNegativeDuration("rpc-retry-backoff", *rpcRetryBackoff)
	fc.NonNegativeInt("quarantine-after", *quarantineAfter)
	fc.PositiveDuration("cap-lease-ttl", *capLeaseTTL)
	fc.PositiveDuration("store-interval", *storeInterval)
	fc.PositiveDuration("failover-interval", *failInterval)
	fc.PositiveInt("failover-misses", *failMisses)
	fc.FloatInRange("failover-jitter", *failJitter, 0, 0.5)
	if err := fc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *backup && *primaryAddr == "" {
		fmt.Fprintln(os.Stderr, "-backup requires -primary")
		os.Exit(2)
	}

	logger := telemetry.NewLogger(os.Stdout, "dynamo-controllerd")

	loop := simclock.NewWallLoop()
	defer loop.Close()

	var sink *telemetry.Sink
	if *metricsAddr != "" {
		sink = telemetry.NewSink()
	}

	entries, err := parseAgents(*agents)
	if err != nil {
		fatal(logger, err)
	}

	// The local state store holds this controller's checkpoint stream. A
	// primary writes into it and ships to peers; a backup's copy is the
	// replica it adopts from on promotion.
	role := "primary"
	if *backup {
		role = "backup"
	}
	store := statestore.NewStore(loop, *device+"/"+role, sink)

	// The daemon is a one-leaf suite, assembled by the same builder (and
	// 1-worker cohort scheduler) as dynamo-suited and the simulator.
	cfg := &config.Suite{Name: role, Controllers: []config.Controller{{
		Device: *device, Level: "leaf",
		LimitWatts: *limit, QuotaWatts: *quota, PollSeconds: poll.Seconds(),
		DryRun: *dryRun, Agents: entries,
	}}}
	asm, err := suite.Build(loop, cfg, suite.TCPDialer(loop, sink, *rpcTimeout), suite.AlertLogger(logger), sink, suite.Options{
		Store: store,
		Retry: core.RetryConfig{
			MaxRetries: *rpcRetries,
			Backoff:    *rpcRetryBackoff,
			JitterFrac: 0.2,
			Seed:       1,
		},
		QuarantineThreshold: *quarantineAfter,
		CapLeaseTTL:         *capLeaseTTL,
	})
	if err != nil {
		fatal(logger, err)
	}
	leaf := asm.Leaf(topology.NodeID(*device))
	if !*backup {
		loop.Post(leaf.Start)
	}

	srv := rpc.NewTCPServer(rpc.LoopHandler(loop, leaf.Handler()))
	srv.SetTelemetry(sink)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(logger, err)
	}
	defer srv.Close()
	logger.Log(telemetry.LevelInfo, "listening",
		"device", *device, "limit", power.Watts(*limit), "agents", len(entries), "addr", addr, "role", role)

	if *storeListen != "" {
		ssrv := rpc.NewTCPServer(rpc.LoopHandler(loop, store.Handler()))
		ssrv.SetTelemetry(sink)
		saddr, err := ssrv.Listen(*storeListen)
		if err != nil {
			fatal(logger, err)
		}
		defer ssrv.Close()
		logger.Log(telemetry.LevelInfo, "state store serving", "addr", saddr)
	}

	// Failover-pair daemons start in any order, so peer connections are
	// established in the background with retries: a one-peer shipper per
	// replication target, and the backup's health probe.
	if strings.TrimSpace(*storePeers) != "" {
		for _, peerAddr := range strings.Split(*storePeers, ",") {
			peerAddr = strings.TrimSpace(peerAddr)
			dialPersist(loop, peerAddr, sink, logger, func(cl *rpc.TCPClient) {
				shipper := statestore.NewShipper(loop, store, []statestore.Peer{{Name: peerAddr, Client: cl}},
					statestore.ShipperConfig{Interval: *storeInterval, Telemetry: sink})
				shipper.Start()
				logger.Log(telemetry.LevelInfo, "replicating state store", "peer", peerAddr, "interval", *storeInterval)
			})
		}
	}

	if *backup {
		dialPersist(loop, *primaryAddr, sink, logger, func(probe *rpc.TCPClient) {
			fo := core.NewFailoverProbe(loop, probe, *device, leaf, core.FailoverConfig{
				PingInterval:   *failInterval,
				FailThreshold:  *failMisses,
				PingJitterFrac: *failJitter,
				Store:          store,
				Alerts:         suite.AlertLogger(logger),
				Telemetry:      sink,
				OnPromoted: func() {
					logger.Log(telemetry.LevelWarning, "promoted to active controller",
						"device", *device, "cycles", leaf.Cycles())
				},
			})
			fo.Start()
			logger.Log(telemetry.LevelInfo, "standing by as backup",
				"primary", *primaryAddr, "probe", *failInterval, "misses", *failMisses)
		})
	}

	if *metricsAddr != "" {
		state := func() interface{} {
			var st core.ControllerStatus
			loop.Call(func() { st = leaf.Status(32) })
			return st
		}
		hs, err := telemetry.Serve(*metricsAddr, sink, state)
		if err != nil {
			fatal(logger, err)
		}
		defer hs.Close()
		logger.Log(telemetry.LevelInfo, "metrics exposition up", "addr", hs.Addr())
	}

	status := simclock.NewTicker(loop, 15*time.Second, func() {
		agg, valid := leaf.LastAggregate()
		logger.Log(telemetry.LevelInfo, "status",
			"agg", agg, "valid", valid, "capped", leaf.CappedCount(),
			"cycles", leaf.Cycles(), "effLimit", leaf.EffectiveLimit())
	})
	loop.Post(status.Start)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Log(telemetry.LevelInfo, "shutting down")
	loop.Call(leaf.Stop)
}

// dialPersist dials addr in the background, retrying until it succeeds,
// then hands the connected client to wire on the loop goroutine. The
// daemons of a failover pair reference each other (the backup probes the
// primary, the primary ships checkpoints to the backup's store), so
// neither side can require the other to be up at launch. The client lives
// for the rest of the process; the OS reclaims it at exit.
func dialPersist(loop *simclock.WallLoop, addr string, sink *telemetry.Sink, logger *telemetry.Logger, wire func(*rpc.TCPClient)) {
	go func() {
		for attempt := 1; ; attempt++ {
			cl, err := rpc.DialTCP(addr, loop)
			if err == nil {
				cl.SetTelemetry(sink)
				loop.Post(func() { wire(cl) })
				return
			}
			if attempt%20 == 1 {
				logger.Log(telemetry.LevelWarning, "peer not reachable yet; retrying",
					"addr", addr, "err", err.Error())
			}
			time.Sleep(500 * time.Millisecond)
		}
	}()
}

// parseAgents parses "id=service@host:port,..." into the leaf's agent
// entries; an empty list yields none, which config validation rejects.
func parseAgents(list string) ([]config.AgentEntry, error) {
	var out []config.AgentEntry
	if strings.TrimSpace(list) == "" {
		return out, nil
	}
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		idSvc, addr, ok := strings.Cut(entry, "@")
		id, svc, ok2 := strings.Cut(idSvc, "=")
		if !ok || !ok2 {
			return nil, fmt.Errorf("bad agent entry %q (want id=service@host:port)", entry)
		}
		out = append(out, config.AgentEntry{ID: id, Service: svc, Addr: addr})
	}
	return out, nil
}

func fatal(logger *telemetry.Logger, err error) {
	logger.Log(telemetry.LevelError, err.Error())
	os.Exit(1)
}
