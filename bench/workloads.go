package main

import (
	"fmt"
	"strings"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/faults"
	"dynamo/internal/power"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// scenario is one built simulator workload, positioned at the start of its
// timed section with every scripted event already scheduled.
type scenario struct {
	sim *sim.Sim
	// protected are the devices whose overdraw episodes are scored: the
	// RPPs on leaf_cap, the SBs on sb_surge_chaos, none elsewhere.
	protected []*topology.Node
}

// simWorkload describes one simulator workload. A timed round is always
// the same virtual span on the same seed, so its simulated statistics
// repeat exactly and only host time varies between rounds.
type simWorkload struct {
	name string
	// tick is the physics step of the timed section, and the length of one
	// timed step.
	tick time.Duration
	// round is the virtual length of one timed round. The constants were
	// sized on a 2.1 GHz box so that a round costs 2 to 3.5 s of host
	// time on one processor; they are frozen, and a faster host simply
	// fits more rounds into --seconds.
	round time.Duration
	// controlled workloads run the controller hierarchy; their Dynamo-off
	// twin (same spec, seed, ticks and events) is the physics span of the
	// traced pass.
	controlled bool
	// build constructs the scenario. dynamo=false builds the twin.
	build func(seed int64, dynamo bool) (*scenario, error)
	// check returns the workload's own output-check failures.
	check func(o *outcome) []string
}

var simWorkloads = []*simWorkload{
	{
		name: "quiescent_day", tick: 3 * time.Second, round: 25 * time.Minute,
		controlled: true, build: buildQuiescentDay, check: checkQuiescentDay,
	},
	{
		name: "open_loop_10k", tick: time.Second, round: 25 * time.Minute,
		build: buildOpenLoop10k, check: func(*outcome) []string { return nil },
	},
	{
		name: "leaf_cap", tick: time.Second, round: leafCapRound,
		controlled: true, build: buildLeafCap, check: checkLeafCap,
	},
	{
		name: "sb_surge_chaos", tick: time.Second, round: sbSurgeRound,
		controlled: true, build: buildSBSurgeChaos, check: checkSBSurgeChaos,
	},
}

// warmUp is the virtual time every controlled workload runs with its
// controllers started before the timed section begins: the first cycles
// (an upper controller's first pull finds children with nothing to report
// and journals an invalid aggregate) and the first full aggregation pass
// are set-up, not the behaviour being measured.
const warmUp = 30 * time.Second

// fastForward starts a freshly built sim and advances it to clock time to.
// Until warmUp before to it runs on a 30 s physics step with the
// controller hierarchy stopped (with the controllers pulling every agent
// every 3 s the same span costs ~70x more); then it switches to the
// workload's tick and starts the controllers. The tick period is changed
// one coarse step early, because a ticker applies a new period only when
// it next re-arms.
func fastForward(s *sim.Sim, to, tick time.Duration) {
	const coarse = 30 * time.Second
	s.Start()
	if s.Hierarchy != nil {
		s.Hierarchy.StopAll()
	}
	s.SetTickInterval(coarse)
	s.Loop.RunFor(to - warmUp - coarse)
	s.SetTickInterval(tick)
	s.Loop.RunFor(coarse)
	if s.Hierarchy != nil {
		s.Hierarchy.StartAll()
	}
	s.Loop.RunFor(warmUp)
}

// --- quiescent_day ---

// buildQuiescentDay is the steady state: ~2000 servers of the default
// service mix under every limit, leaves pulling every agent every 3 s and
// deciding nothing.
func buildQuiescentDay(seed int64, dynamo bool) (*scenario, error) {
	s, err := sim.New(quiescentConfig(seed, dynamo))
	if err != nil {
		return nil, err
	}
	s.Start()
	s.Loop.RunFor(warmUp)
	return &scenario{sim: s}, nil
}

func quiescentConfig(seed int64, dynamo bool) sim.Config {
	return sim.Config{
		Spec:         topology.DefaultSpec().Scale(2000),
		Seed:         seed,
		EnableDynamo: dynamo,
		TickInterval: 3 * time.Second,
	}
}

func checkQuiescentDay(o *outcome) []string {
	var bad []string
	if o.capEvents != 0 || o.uncapEvents != 0 {
		bad = append(bad, fmt.Sprintf("quiescent fleet saw %d cap / %d uncap events", o.capEvents, o.uncapEvents))
	}
	if o.alerts != 0 {
		bad = append(bad, fmt.Sprintf("quiescent fleet raised %d alerts", o.alerts))
	}
	return bad
}

// --- open_loop_10k ---

// buildOpenLoop10k is physics only: ~10k servers, no controllers, 1 s
// tick, breaker meters refreshed every 30 s and every RPP recorded at 5 s.
func buildOpenLoop10k(seed int64, _ bool) (*scenario, error) {
	s, err := sim.New(sim.Config{
		Spec:              topology.DefaultSpec().Scale(10000),
		Seed:              seed,
		TickInterval:      time.Second,
		ValidatorInterval: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	var rpps []topology.NodeID
	for _, n := range s.Topo.OfKind(topology.KindRPP) {
		rpps = append(rpps, n.ID)
	}
	s.Record(5*time.Second, rpps...)
	s.Start()
	s.Loop.RunFor(warmUp)
	return &scenario{sim: s}, nil
}

// --- leaf_cap ---

// The leaf_cap round: from 10:30, two step surges on every row, each held
// long enough for the leaf to cap and settle, each followed by a drain
// long enough for the leaf to uncap.
const (
	leafCapStart   = 10*time.Hour + 30*time.Minute
	leafCapSurgeOn = 4 * time.Minute
	leafCapPeriod  = 7 * time.Minute
	leafCapSurges  = 2
	leafCapRound   = leafCapSurges * leafCapPeriod
)

// buildLeafCap is Fig 11 at fleet scale: 8 rows of 420 web servers, each
// on a 127.5 kW RPP breaker with the production 127/126/118 kW bands.
func buildLeafCap(seed int64, dynamo bool) (*scenario, error) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 8
	spec.RacksPerRPP, spec.ServersPerRack = 14, 30
	spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
	spec.RPPRating = power.KW(127.5)
	// Only the rows are the bottleneck here.
	spec.SBRating = spec.RPPRating * 16
	spec.MSBRating = spec.RPPRating * 32

	s, err := sim.New(sim.Config{
		Spec: spec, Seed: seed, EnableDynamo: dynamo,
		// The twin has nothing to cap the surge, so it would trip; keep
		// its servers up so it does the same physics.
		DisableTripOutage: !dynamo,
		Hierarchy: core.HierarchyConfig{
			Bands: core.BandConfig{CapThresholdFrac: 0.996, CapTargetFrac: 0.988, UncapThresholdFrac: 0.925},
		},
	})
	if err != nil {
		return nil, err
	}
	rows := s.Topo.OfKind(topology.KindRPP)
	fastForward(s, leafCapStart, time.Second)
	setRows := func(extra float64) func() {
		return func() {
			for _, r := range rows {
				s.SetExtraLoadUnder(r.ID, extra)
			}
		}
	}
	for i := 0; i < leafCapSurges; i++ {
		t := leafCapStart + time.Duration(i)*leafCapPeriod
		s.At(t+time.Minute, setRows(0.30))
		s.At(t+time.Minute+leafCapSurgeOn, setRows(-0.05))
	}
	return &scenario{sim: s, protected: rows}, nil
}

func checkLeafCap(o *outcome) []string {
	var bad []string
	want := len(o.protected) * leafCapSurges
	if o.episodes != want {
		bad = append(bad, fmt.Sprintf("closed %d overdraw episodes, want one per row per surge = %d", o.episodes, want))
	}
	for _, id := range o.protected {
		if n := o.episodesBy[id]; n != leafCapSurges {
			bad = append(bad, fmt.Sprintf("row %s closed %d episodes, want %d", id, n, leafCapSurges))
		}
	}
	return bad
}

// --- sb_surge_chaos ---

// The sb_surge_chaos round: from 12:40, three offender rows per SB
// saturate for sbSurgeOn; part of one offender row is partitioned from its
// leaf for 90 s in the middle of the surge.
const (
	sbSurgeStart     = 12*time.Hour + 40*time.Minute
	sbSurgeOn        = 7 * time.Minute
	sbSurgeRound     = 13 * time.Minute
	sbPartitionAfter = 3 * time.Minute
	sbPartitionFor   = 90 * time.Second
	sbOffenders      = 3
)

// buildSBSurgeChaos is the Fig 12 calibration replicated over 4 SBs, with
// the robustness stack on and faults injected: the 9 s upper loop
// contracts offender rows over the 3 s leaf loop while pulls are dropped
// and retried, agents are quarantined and re-admitted, leases expire and
// every cycle is checkpointed.
func buildSBSurgeChaos(seed int64, dynamo bool) (*scenario, error) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 4, 8
	spec.RacksPerRPP, spec.ServersPerRack = 2, 30
	spec.Services = []topology.ServiceShare{{Service: "web", Generation: "haswell2015", Weight: 1}}
	// Fig 12's calibration: rows run at ~92% of quota, and the SB limit is
	// the worst-case row power / 0.152, so three saturated rows overdraw
	// the SB while carrying enough over-quota headroom to absorb the cut.
	maxRow := power.Watts(float64(spec.RacksPerRPP*spec.ServersPerRack)*345) + 2*150
	sbLimit := power.Watts(float64(maxRow) / 0.152)
	spec.RPPRating = maxRow * 2
	spec.SBRating = sbLimit
	spec.MSBRating = sbLimit * 8
	// Fig 12 sets quotas at 0.92 of an even split, which is exactly where
	// the rows run: sensor noise then decides whether the SB also contracts
	// non-offender rows, and the capped-server work swings 2x between
	// seeds. At 0.96 the three saturated rows are the clear offenders on
	// nearly every seed, so host cost is comparable across seeds.
	spec.QuotaFraction = 0.96

	cfg := sim.Config{
		Spec: spec, Seed: seed, EnableDynamo: dynamo,
		DisableTripOutage: !dynamo,
	}
	if dynamo {
		cfg.ControlRetry = core.RetryConfig{MaxRetries: 2, Backoff: 50 * time.Millisecond, JitterFrac: 0.2}
		cfg.QuarantineThreshold = 2
		cfg.CapLeaseTTL = 15 * time.Second
		cfg.Checkpoint = true
		// The drop rule lapses a minute before the round ends, so that the
		// last agents it got quarantined are re-admitted by then.
		cfg.FaultRules = []faults.Rule{{
			Peer: "agent/*", Method: "Agent.ReadPower", DropP: 0.05,
			Until: sbSurgeStart + sbSurgeRound - time.Minute,
		}}
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	s.SetServiceLoadFactor("web", 0.92)
	sbs := s.Topo.OfKind(topology.KindSB)
	var offenders []*topology.Node
	for _, sb := range sbs {
		offenders = append(offenders, sb.Children[:sbOffenders]...)
	}
	if dynamo {
		// Cut the leaf of the first offender row off from the first nine
		// servers of one of its racks (srv00001..srv00009): 15% of the
		// row, below the 20% failure fraction that would invalidate the
		// leaf's aggregate, so the cycle stays valid and the quarantine,
		// estimation and lease-expiry paths carry the outage.
		rack := offenders[0].Children[0]
		glob := core.AgentAddr(string(rack.ID)) + "/srv0000*"
		cut := 0
		for _, n := range rack.Children {
			if strings.HasPrefix(core.AgentAddr(string(n.ID)), strings.TrimSuffix(glob, "*")) {
				cut++
			}
		}
		if cut != 9 {
			return nil, fmt.Errorf("partition glob %s matches %d servers, want 9", glob, cut)
		}
		s.Faults.Add(faults.Partition(glob,
			sbSurgeStart+time.Minute+sbPartitionAfter,
			sbSurgeStart+time.Minute+sbPartitionAfter+sbPartitionFor))
	}
	fastForward(s, sbSurgeStart, time.Second)
	setOffenders := func(extra float64) func() {
		return func() {
			for _, r := range offenders {
				s.SetExtraLoadUnder(r.ID, extra)
			}
		}
	}
	s.At(sbSurgeStart+time.Minute, setOffenders(1.0))
	s.At(sbSurgeStart+time.Minute+sbSurgeOn, setOffenders(0))
	return &scenario{sim: s, protected: sbs}, nil
}

func checkSBSurgeChaos(o *outcome) []string {
	var bad []string
	for _, id := range o.protected {
		if o.maxContracted[id] < 1 {
			bad = append(bad, fmt.Sprintf("SB %s never contracted a child", id))
		}
		if o.episodesBy[id] < 1 {
			bad = append(bad, fmt.Sprintf("SB %s closed no overdraw episode", id))
		}
	}
	if o.leaseExpiries < 1 {
		bad = append(bad, "no cap lease expired during the partition")
	}
	if o.quarantinedPeak < 1 {
		bad = append(bad, "no agent was quarantined during the partition")
	}
	if o.quarantinedEnd != 0 {
		bad = append(bad, fmt.Sprintf("%d agents still quarantined at the end", o.quarantinedEnd))
	}
	if o.faultsDropped < 1 {
		bad = append(bad, "fault schedule dropped no call")
	}
	return bad
}
