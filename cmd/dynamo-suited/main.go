// Command dynamo-suited runs a consolidated suite controller: every leaf
// and upper controller for one data center suite in a single process, as
// deployed in production (paper §IV). It is the one controller daemon (a
// single leaf is a suite of one controller) and runs suite.Deploy on the
// wall clock over TCP:
//
//	dynamo-suited -config suite.json -metrics-addr :9090
//
// Controllers with a "listen" address in the config are served over TCP,
// for an out-of-suite parent to pull. -metrics-addr serves Prometheus
// metrics at /metrics, a JSON snapshot of the suite at /debug/state, and
// /healthz. Two daemons form a failover pair (paper §III-E): the primary
// ships its checkpoints to the backup's store, and the backup probes any
// controller the primary serves and, on sustained failure, takes over
// from its replica, resuming the primary's cycle numbering:
//
//	dynamo-suited -config suite.json -store-peers 127.0.0.1:7095
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
	"unicode"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/simclock"
	"dynamo/internal/suite"
	"dynamo/internal/telemetry"
)

func main() {
	d := suite.DefaultDaemon()
	path := flag.String("config", "suite.json", "suite configuration file")
	metricsAddr := flag.String("metrics-addr", "", "HTTP exposition address for /metrics, /debug/state, /healthz (empty: disabled)")
	flag.StringVar(&d.StoreListen, "store-listen", "", "TCP address serving the suite's state store to peers (empty: not served)")
	storePeers := flag.String("store-peers", "", "comma-separated host:port list of peer state stores to replicate checkpoints to")
	flag.DurationVar(&d.StoreInterval, "store-interval", d.StoreInterval, "checkpoint replication cadence")
	flag.DurationVar(&d.RPCTimeout, "rpc-timeout", d.RPCTimeout, "default deadline for outbound RPCs that would otherwise be unbounded")
	flag.IntVar(&d.Retry.MaxRetries, "rpc-retries", d.Retry.MaxRetries, "bounded retries per failed agent/child RPC (0: single attempt)")
	flag.DurationVar(&d.Retry.Backoff, "rpc-retry-backoff", d.Retry.Backoff, "base backoff between RPC retries (doubles per attempt, jittered)")
	flag.IntVar(&d.QuarantineThreshold, "quarantine-after", d.QuarantineThreshold, "consecutive failed pulls before a leaf quarantines an agent (0: disabled)")
	flag.DurationVar(&d.CapLeaseTTL, "cap-lease-ttl", d.CapLeaseTTL, "cap lease attached to SetCap and renewed by every pull of a capped agent (must be > 0)")
	flag.StringVar(&d.Primary, "primary", "", "run as backup: probe this primary controller address and take over on sustained failure (empty: run as primary)")
	flag.Parse()
	d.StorePeers = strings.FieldsFunc(*storePeers, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })

	var fc config.FlagCheck
	fc.PositiveDuration("store-interval", d.StoreInterval)
	fc.NonNegativeDuration("rpc-timeout", d.RPCTimeout)
	fc.NonNegativeInt("rpc-retries", d.Retry.MaxRetries)
	fc.NonNegativeDuration("rpc-retry-backoff", d.Retry.Backoff)
	fc.NonNegativeInt("quarantine-after", d.QuarantineThreshold)
	fc.PositiveDuration("cap-lease-ttl", d.CapLeaseTTL)
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

	dep, err := suite.Deploy(loop, cfg, d, suite.TCPTransport(loop, sink), logger, sink)
	if err != nil {
		fatal(logger, err)
	}

	if *metricsAddr != "" {
		hs, err := telemetry.Serve(*metricsAddr, sink, func() interface{} {
			var st []core.ControllerStatus
			loop.Call(func() { st = dep.Status(32) })
			return map[string]interface{}{"suite": cfg.Name, "controllers": st}
		})
		if err != nil {
			fatal(logger, err)
		}
		defer hs.Close()
		logger.Log(telemetry.LevelInfo, "metrics exposition up", "addr", hs.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Log(telemetry.LevelInfo, "shutting down")
	dep.Stop()
}

func fatal(logger *telemetry.Logger, err error) {
	logger.Log(telemetry.LevelError, err.Error())
	os.Exit(1)
}
