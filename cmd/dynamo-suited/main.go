// Command dynamo-suited runs a consolidated suite controller: every leaf
// and upper controller for one data center suite in a single process, as
// deployed in production (paper §IV: "all controller instances for
// neighboring devices in a data center suite are consolidated into one
// binary"). Agents and out-of-suite children are reached over TCP;
// sibling controllers communicate in-process. It is the one controller
// daemon: a single leaf is a suite of one controller.
//
// Usage:
//
//	dynamo-suited -config suite.json -metrics-addr :9090
//
// Controllers with a "listen" address in the config are additionally
// exposed over TCP so an out-of-suite parent (e.g. the MSB controller in
// another binary) can pull them. With -metrics-addr set, the daemon
// exposes Prometheus metrics for every controller at /metrics, a JSON
// snapshot of the whole suite at /debug/state, and /healthz.
//
// Two daemons form a failover pair (paper §III-E). The primary checkpoints
// every decision cycle into its state store and ships the stream to peers:
//
//	dynamo-suited -config suite.json -store-peers 127.0.0.1:7095
//
// The backup builds the same suite but does not start it. It serves its
// store replica on -store-listen and probes -primary, any controller the
// primary exposes. On sustained probe failure every controller adopts its
// own replicated stream (resuming the primary's cycle numbering) and
// starts:
//
//	dynamo-suited -config backup.json -primary 127.0.0.1:7090 \
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
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/suite"
	"dynamo/internal/telemetry"
)

func main() {
	path := flag.String("config", "suite.json", "suite configuration file")
	metricsAddr := flag.String("metrics-addr", "", "HTTP exposition address for /metrics, /debug/state, /healthz (empty: disabled)")
	storeListen := flag.String("store-listen", "", "TCP address serving the suite's state store to peers (empty: not served)")
	storePeers := flag.String("store-peers", "", "comma-separated host:port list of peer state stores to replicate checkpoints to")
	storeInterval := flag.Duration("store-interval", time.Second, "checkpoint replication cadence")
	rpcTimeout := flag.Duration("rpc-timeout", 2*time.Second, "default deadline for outbound RPCs that would otherwise be unbounded")
	rpcRetries := flag.Int("rpc-retries", 2, "bounded retries per failed agent/child RPC (0: single attempt)")
	rpcRetryBackoff := flag.Duration("rpc-retry-backoff", 100*time.Millisecond, "base backoff between RPC retries (doubles per attempt, jittered)")
	quarantineAfter := flag.Int("quarantine-after", 3, "consecutive failed pulls before a leaf quarantines an agent (0: disabled)")
	capLeaseTTL := flag.Duration("cap-lease-ttl", 12*time.Second, "cap lease attached to SetCap and renewed by every pull of a capped agent (must be > 0)")
	primary := flag.String("primary", "", "run as backup: probe this primary controller address and take over on sustained failure (empty: run as primary)")
	flag.Parse()

	var fc config.FlagCheck
	fc.PositiveDuration("store-interval", *storeInterval)
	fc.NonNegativeDuration("rpc-timeout", *rpcTimeout)
	fc.NonNegativeInt("rpc-retries", *rpcRetries)
	fc.NonNegativeDuration("rpc-retry-backoff", *rpcRetryBackoff)
	fc.NonNegativeInt("quarantine-after", *quarantineAfter)
	fc.PositiveDuration("cap-lease-ttl", *capLeaseTTL)
	if err := fc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	logger := telemetry.NewLogger(os.Stdout, "dynamo-suited")

	cfg, err := config.Load(*path)
	if err != nil {
		fatal(logger, err)
	}

	loop := simclock.NewWallLoop()
	defer loop.Close()

	var sink *telemetry.Sink
	if *metricsAddr != "" {
		sink = telemetry.NewSink()
	}

	// Every controller in the suite checkpoints into one shared state
	// store; serve and/or replicate it when the flags ask for it. A
	// backup's store is the replica it adopts from on promotion.
	store := statestore.NewStore(loop, cfg.Name, sink)
	dial := suite.TCPDialer(loop, sink, *rpcTimeout)
	asm, err := suite.Build(loop, cfg, dial, suite.AlertLogger(logger), sink, suite.Options{
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
	// The daemons of a failover pair start in any order, so each peer is
	// dialed in the background and gets its own shipper once connected.
	if strings.TrimSpace(*storePeers) != "" {
		for _, addr := range strings.Split(*storePeers, ",") {
			addr = strings.TrimSpace(addr)
			dialPersist(loop, addr, sink, logger, func(cl *rpc.TCPClient) {
				statestore.NewShipper(loop, store, []statestore.Peer{{Name: addr, Client: cl}},
					statestore.ShipperConfig{Interval: *storeInterval, Telemetry: sink}).Start()
				logger.Log(telemetry.LevelInfo, "replicating state store", "peer", addr, "interval", *storeInterval)
			})
		}
	}

	// Expose controllers that declare a listen address.
	var servers []*rpc.TCPServer
	for _, c := range cfg.Controllers {
		if c.Listen == "" {
			continue
		}
		ctrl := asm.Controller(c.Device)
		srv := rpc.NewTCPServer(rpc.LoopHandler(loop, ctrl.Handler()))
		srv.SetTelemetry(sink)
		addr, err := srv.Listen(c.Listen)
		if err != nil {
			fatal(logger, fmt.Errorf("listen for %s: %w", c.Device, err))
		}
		servers = append(servers, srv)
		logger.Log(telemetry.LevelInfo, "controller exposed", "device", c.Device, "addr", addr)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	role := "primary"
	if *primary == "" {
		loop.Post(asm.StartAll)
	} else {
		role = "backup"
		standBy(loop, cfg, asm, *primary, store, sink, logger)
	}
	logger.Log(telemetry.LevelInfo, "suite consolidated",
		"suite", cfg.Name, "role", role, "controllers", asm.NumControllers(),
		"leaves", len(asm.Leaves), "uppers", len(asm.Uppers))

	if *metricsAddr != "" {
		state := func() interface{} {
			var st []core.ControllerStatus
			loop.Call(func() { st = asm.Status(32) })
			return map[string]interface{}{"suite": cfg.Name, "controllers": st}
		}
		hs, err := telemetry.Serve(*metricsAddr, sink, state)
		if err != nil {
			fatal(logger, err)
		}
		defer hs.Close()
		logger.Log(telemetry.LevelInfo, "metrics exposition up", "addr", hs.Addr())
	}

	status := simclock.NewTicker(loop, 15*time.Second, func() {
		for _, dev := range asm.Devices() {
			if leaf := asm.Leaf(dev); leaf != nil {
				agg, valid := leaf.LastAggregate()
				logger.Log(telemetry.LevelInfo, "status", "device", string(dev),
					"agg", agg, "valid", valid, "capped", leaf.CappedCount(),
					"cycles", leaf.Cycles(), "effLimit", leaf.EffectiveLimit())
				continue
			}
			up := asm.Upper(dev)
			agg, valid := up.LastAggregate()
			logger.Log(telemetry.LevelInfo, "status", "device", string(dev),
				"agg", agg, "valid", valid, "contracted", up.ContractedChildren())
		}
	})
	loop.Post(status.Start)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Log(telemetry.LevelInfo, "shutting down")
	loop.Call(asm.StopAll)
}

// standBy makes the built, unstarted suite the backup of the primary
// controller at addr. Once addr answers a dial, one core.Failover probes
// it at the suite's shortest poll interval (at most the paper's 3 s leaf
// cycle) and, on sustained failure, promotes every controller, each
// adopting its own stream from the local store replica.
func standBy(loop *simclock.WallLoop, cfg *config.Suite, asm *suite.Assembly, addr string, store *statestore.Store, sink *telemetry.Sink, logger *telemetry.Logger) {
	interval := 3 * time.Second
	for _, c := range cfg.Controllers {
		if p := c.Poll(); p > 0 && p < interval {
			interval = p
		}
	}
	dialPersist(loop, addr, sink, logger, func(probe *rpc.TCPClient) {
		core.NewFailoverProbe(loop, probe, asm.Controllers(), core.FailoverConfig{
			PingInterval: interval,
			Store:        store,
			Alerts:       suite.AlertLogger(logger),
			Telemetry:    sink,
			OnPromoted: func() {
				logger.Log(telemetry.LevelWarning, "promoted to active suite",
					"suite", cfg.Name, "controllers", asm.NumControllers())
			},
		}).Start()
		logger.Log(telemetry.LevelInfo, "standing by as backup", "primary", addr, "probe", interval)
	})
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

func fatal(logger *telemetry.Logger, err error) {
	logger.Log(telemetry.LevelError, err.Error())
	os.Exit(1)
}
