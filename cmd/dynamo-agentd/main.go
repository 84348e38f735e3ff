// Command dynamo-agentd runs a Dynamo agent as a standalone daemon
// serving the agent protocol over TCP — the real-network counterpart of
// the in-process agents used by the simulator. Since no Intel RAPL is
// available here, the agent fronts a simulated host (the same physics the
// simulator uses) ticked on the wall clock; the network path, framing,
// and protocol are the production ones.
//
// Usage:
//
//	dynamo-agentd -listen :7080 -id srv001 -service web \
//	              -generation haswell2015 -load 0.6 -platform msr \
//	              -metrics-addr :9091
//
// With -metrics-addr set, the daemon exposes Prometheus metrics at
// /metrics, a JSON agent snapshot at /debug/state, and /healthz.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/config"
	"dynamo/internal/platform"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/server"
	"dynamo/internal/simclock"
	"dynamo/internal/telemetry"
	"dynamo/internal/workload"
)

func main() {
	listen := flag.String("listen", ":7080", "TCP listen address")
	id := flag.String("id", "srv001", "server identifier")
	service := flag.String("service", "web", "service the host runs")
	generation := flag.String("generation", "haswell2015", "hardware generation")
	load := flag.Float64("load", -1, "fixed offered load; -1 uses the service workload model")
	platName := flag.String("platform", "msr", "platform backend: msr, ipmi, or estimated")
	seed := flag.Int64("seed", 1, "seed for workload and sensor noise")
	metricsAddr := flag.String("metrics-addr", "", "HTTP exposition address for /metrics, /debug/state, /healthz (empty: disabled)")
	capLeaseTTL := flag.Duration("cap-lease-ttl", 15*time.Second, "release a cap whose lease is not renewed within this TTL (fail-safe against a dead controller; must be > 0)")
	flag.Parse()

	var fc config.FlagCheck
	fc.PositiveDuration("cap-lease-ttl", *capLeaseTTL)
	if *load != -1 {
		fc.NonNegativeFloat("load", *load)
	}
	if err := fc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	logger := telemetry.NewLogger(os.Stdout, "dynamo-agentd")

	model, err := server.LookupModel(*generation)
	if err != nil {
		fatal(logger, err)
	}

	var source server.LoadSource
	if *load >= 0 {
		fixed := *load
		source = server.LoadFunc(func(time.Duration) float64 { return fixed })
	} else {
		prof, err := workload.Lookup(*service)
		if err != nil {
			fatal(logger, err)
		}
		shared := workload.NewShared(prof, *seed)
		source = workload.NewGenerator(shared, *seed+1)
	}

	host := server.New(server.Config{
		ID: *id, Service: *service, Model: model, Source: source,
	})

	var plat platform.Platform
	switch *platName {
	case "msr":
		plat = platform.NewMSR(host, platform.Options{Seed: *seed})
	case "ipmi":
		plat = platform.NewIPMI(host, platform.Options{Seed: *seed})
	case "estimated":
		em := platform.Calibrate(model, 21, 1.0, *seed)
		plat, err = platform.NewEstimated(host, em, platform.Options{Seed: *seed})
		if err != nil {
			fatal(logger, err)
		}
	default:
		fatal(logger, fmt.Errorf("unknown platform %q", *platName))
	}

	loop := simclock.NewWallLoop()
	defer loop.Close()
	ticker := simclock.NewTicker(loop, time.Second, func() { host.Tick(loop.Now()) })
	loop.Post(ticker.Start)

	var sink *telemetry.Sink
	if *metricsAddr != "" {
		sink = telemetry.NewSink()
	}

	ag := agent.New(*id, *service, *generation, plat)
	ag.SetTelemetry(sink)
	ag.EnableLease(loop, *capLeaseTTL, func(id string, limit power.Watts) {
		logger.Log(telemetry.LevelWarning, "cap lease expired; limit released",
			"id", id, "limit", limit)
	})
	srv := rpc.NewTCPServer(rpc.LoopHandler(loop, ag.Handler()))
	srv.SetTelemetry(sink)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(logger, err)
	}
	defer srv.Close()
	logger.Log(telemetry.LevelInfo, "listening",
		"id", *id, "service", *service, "generation", *generation,
		"platform", *platName, "addr", addr)

	if *metricsAddr != "" {
		state := func() interface{} {
			var st map[string]interface{}
			loop.Call(func() {
				lim, capped := plat.PowerLimit()
				reads, caps, uncaps, errs := ag.Stats()
				st = map[string]interface{}{
					"id": *id, "service": *service, "generation": *generation,
					"power_watts": float64(host.Power()),
					"capped":      capped, "limit_watts": float64(lim),
					"reads": reads, "caps": caps, "uncaps": uncaps, "errors": errs,
				}
			})
			return st
		}
		hs, err := telemetry.Serve(*metricsAddr, sink, state)
		if err != nil {
			fatal(logger, err)
		}
		defer hs.Close()
		logger.Log(telemetry.LevelInfo, "metrics exposition up", "addr", hs.Addr())
	}

	status := simclock.NewTicker(loop, 30*time.Second, func() {
		reads, caps, uncaps, errs := ag.Stats()
		lim, capped := plat.PowerLimit()
		logger.Log(telemetry.LevelInfo, "status",
			"power", host.Power(), "capped", capped, "limit", lim,
			"reads", reads, "caps", caps, "uncaps", uncaps, "errs", errs)
	})
	loop.Post(status.Start)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Log(telemetry.LevelInfo, "shutting down")
}

func fatal(logger *telemetry.Logger, err error) {
	logger.Log(telemetry.LevelError, err.Error())
	os.Exit(1)
}
