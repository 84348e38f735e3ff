package main

// The metric names and units below are the benchmark's contract with
// BENCHMARK.json at the repository root; bench_test.go checks that the two
// agree. bench/README.md defines every metric.

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them, and none can be zero.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"work_per_s":       "1/s",
	"step_p50_us":      "us",
	"allocs_per_work":  "count",
	"bytes_per_work":   "B",
	"heap_retained_mb": "MB",
}

// perLayer lists the metrics of a traced run, named <layer>.<metric>. A
// metric that does not apply to the workload being run reads 0.
var perLayer = map[string]string{
	// A: differential spans against the Dynamo-off twin.
	"sim.physics_s":     "s",
	"sim.physics_share": "frac",
	"sim.tick_us":       "us",
	"core.control_s":    "s",
	"core.cycle_us":     "us",
	// B: wrapped seams and counters read at the layer boundaries.
	"sim.dirty_server_frac":            "frac",
	"sim.reagg_devices_per_tick":       "count",
	"sim.full_rebuilds":                "count",
	"simclock.events":                  "count",
	"simclock.events_per_server_cycle": "count",
	"agent.busy_s":                     "s",
	"agent.calls.read_power":           "count",
	"agent.calls.set_cap":              "count",
	"agent.calls.clear_cap":            "count",
	"agent.calls.renew_lease":          "count",
	"core.cycles":                      "count",
	"core.cap_events":                  "count",
	"core.uncap_events":                "count",
	"core.invalid_cycles":              "count",
	"core.quarantined_peak":            "count",
	"rpc.retry_calls":                  "count",
	"rpc.tcp_rtt_p999_us":              "us",
	"rpc.tcp_late_or_timeout":          "count",
	"faults.dropped":                   "count",
	"faults.delayed":                   "count",
	"statestore.entries":               "count",
	"statestore.bytes":                 "B",
	// C: fixed-count probes of one layer's public functions.
	"workload.step_ns":           "ns",
	"workload.advance_ns":        "ns",
	"server.tick_ns":             "ns",
	"platform.read_ns":           "ns",
	"platform.set_limit_ns":      "ns",
	"power.observe_ns":           "ns",
	"topology.build_ms":          "ms",
	"simclock.event_ns":          "ns",
	"simclock.allocs_per_event":  "count",
	"wire.marshal_ns":            "ns",
	"wire.unmarshal_ns":          "ns",
	"wire.allocs_per_roundtrip":  "count",
	"rpc.inproc_call_ns":         "ns",
	"rpc.inproc_allocs_per_call": "count",
	"faults.zero_rule_ns":        "ns",
	"faults.zero_rule_allocs":    "count",
	"faults.ruled_ns":            "ns",
	"agent.read_power_ns":        "ns",
	"agent.read_power_allocs":    "count",
	"core.plan_500_us":           "us",
	"core.plan_500_allocs":       "count",
	"statestore.append_ns":       "ns",
	"statestore.append_allocs":   "count",
	"telemetry.on_overhead_frac": "frac",
	// The simulated system's own behaviour, in virtual time. These repeat
	// exactly for a seed; a host-speed change must leave them untouched.
	"outcome.reaction_p50_s":     "virtual_s",
	"outcome.reaction_max_s":     "virtual_s",
	"outcome.peak_breaker_heat":  "frac",
	"outcome.capped_server_frac": "frac",
	"outcome.failed_ops_frac":    "frac",
	"outcome.episodes":           "count",
	"outcome.lease_expiries":     "count",
	// The benchmark itself: tracing overhead, and the tail of the untraced
	// rounds' step times (end to end, but too host-dependent to bound).
	"trace.overhead_frac": "frac",
	"steps.p95_us":        "us",
	"steps.p99_us":        "us",
}
