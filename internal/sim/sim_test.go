package sim

import (
	"testing"
	"time"

	"dynamo/internal/core"
	"dynamo/internal/power"
	"dynamo/internal/topology"
)

func within(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= tol*b || diff <= tol*a
}

func tinySpec() topology.Spec {
	spec := topology.DefaultSpec()
	spec.MSBs = 1
	spec.SBsPerMSB = 1
	spec.RPPsPerSB = 2
	spec.RacksPerRPP = 2
	spec.ServersPerRack = 5
	return spec
}

func TestSimBuildsAndRuns(t *testing.T) {
	s, err := New(Config{Spec: tinySpec(), Seed: 1, EnableDynamo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Servers) != 20 || len(s.Agents) != 20 {
		t.Fatalf("servers=%d agents=%d", len(s.Servers), len(s.Agents))
	}
	if len(s.Breakers) != 7 { // 1 MSB + 1 SB + 2 RPP + ... wait racks too
		// 1 MSB + 1 SB + 2 RPPs + 4 racks = 8
		_ = s
	}
	s.Run(30 * time.Second)
	if s.TotalPower() <= 0 {
		t.Fatal("no power draw")
	}
	msb := s.Topo.OfKind(topology.KindMSB)[0]
	agg, valid := s.Hierarchy.Upper(msb.ID).LastAggregate()
	if !valid || agg <= 0 {
		t.Fatalf("MSB agg %v/%v", agg, valid)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() power.Watts {
		s, err := New(Config{Spec: tinySpec(), Seed: 42, EnableDynamo: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2 * time.Minute)
		return s.TotalPower()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic: %v != %v", a, b)
	}
}

func TestSimSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) power.Watts {
		s, _ := New(Config{Spec: tinySpec(), Seed: seed})
		s.Run(2 * time.Minute)
		return s.TotalPower()
	}
	if run(1) == run(2) {
		t.Error("different seeds should differ")
	}
}

func TestSimDevicePowerHierarchyConsistent(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 3})
	s.Run(time.Minute)
	msb := s.Topo.OfKind(topology.KindMSB)[0]
	var sbSum power.Watts
	for _, sb := range s.Topo.OfKind(topology.KindSB) {
		sbSum += s.DevicePower(sb.ID)
	}
	if got := s.DevicePower(msb.ID); !within(float64(got), float64(sbSum), 0.001) {
		t.Errorf("MSB power %v != sum of SBs %v", got, sbSum)
	}
	if got := s.TotalPower(); !within(float64(got), float64(s.DevicePower(msb.ID)), 0.001) {
		t.Errorf("total %v != MSB %v (single-MSB topo)", got, s.DevicePower(msb.ID))
	}
}

func TestSimRecording(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 4})
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.Record(3*time.Second, rpp.ID)
	srvID := string(s.Topo.Servers()[0].ID)
	s.RecordServers(3*time.Second, srvID)
	s.Run(time.Minute)
	if s.Series(rpp.ID).Len() < 15 {
		t.Errorf("device samples = %d", s.Series(rpp.ID).Len())
	}
	if s.ServerSeries(srvID).Len() < 15 {
		t.Errorf("server samples = %d", s.ServerSeries(srvID).Len())
	}
	if s.Series("bogus") != nil {
		t.Error("unrecorded device should return nil")
	}
}

func TestSimScenarioLoadFactor(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 5})
	s.Run(30 * time.Second)
	before := s.TotalPower()
	s.SetServiceLoadFactor("web", 2.0)
	s.Run(30 * time.Second)
	after := s.TotalPower()
	if after <= before {
		t.Errorf("load factor 2.0 should raise power: %v -> %v", before, after)
	}
}

func TestSimExtraLoadUnderDevice(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 6})
	s.Run(30 * time.Second)
	rpps := s.Topo.OfKind(topology.KindRPP)
	p0 := s.DevicePower(rpps[0].ID)
	p1 := s.DevicePower(rpps[1].ID)
	s.SetExtraLoadUnder(rpps[0].ID, 0.3)
	s.Run(30 * time.Second)
	d0 := float64(s.DevicePower(rpps[0].ID) - p0)
	d1 := float64(s.DevicePower(rpps[1].ID) - p1)
	if d0 < 50 {
		t.Errorf("extra load did not raise target row power (Δ=%v)", d0)
	}
	if d1 > d0/2 {
		t.Errorf("extra load leaked to other row: Δ0=%v Δ1=%v", d0, d1)
	}
}

func TestSimBreakerTripCausesOutage(t *testing.T) {
	// Without Dynamo, a sustained overload trips the RPP breaker and the
	// row goes dark.
	spec := tinySpec()
	spec.RPPRating = power.KW(2.4) // tiny rating so ~10 busy servers overload it
	s, _ := New(Config{Spec: spec, Seed: 7, EnableDynamo: false})
	s.SetServiceLoadFactor("web", 1.6)
	s.SetServiceLoadFactor("cache", 1.6)
	s.SetServiceLoadFactor("hadoop", 1.6)
	s.SetServiceLoadFactor("database", 1.6)
	s.SetServiceLoadFactor("newsfeed", 1.6)
	s.Run(30 * time.Minute)
	if len(s.Trips) == 0 {
		t.Fatal("expected a breaker trip under overload without Dynamo")
	}
	tripped := s.TrippedDevices()
	if len(tripped) == 0 {
		t.Fatal("no tripped devices listed")
	}
	// Servers under the tripped device are dark.
	dark := 0
	for _, srv := range s.Topo.ServersUnder(tripped[0]) {
		if s.Servers[string(srv.ID)].Crashed() {
			dark++
		}
	}
	if dark == 0 {
		t.Error("outage should crash downstream servers")
	}
}

func TestSimDynamoPreventsTrip(t *testing.T) {
	// Same overload with Dynamo enabled: capping holds power below the
	// rating and no breaker trips.
	spec := tinySpec()
	spec.RPPRating = power.KW(2.4)
	s, _ := New(Config{Spec: spec, Seed: 7, EnableDynamo: true})
	s.SetServiceLoadFactor("web", 1.6)
	s.SetServiceLoadFactor("cache", 1.6)
	s.SetServiceLoadFactor("hadoop", 1.6)
	s.SetServiceLoadFactor("database", 1.6)
	s.SetServiceLoadFactor("newsfeed", 1.6)
	s.Run(30 * time.Minute)
	if len(s.Trips) != 0 {
		t.Fatalf("Dynamo failed to prevent trips: %+v", s.Trips)
	}
	if s.CappedServerCount() == 0 {
		t.Error("expected capped servers under overload")
	}
}

func TestSimTurboToggleAndStats(t *testing.T) {
	s, _ := New(Config{
		Spec: tinySpec(), Seed: 8,
		LoadScale: map[string]float64{"hadoop": 1.3},
	})
	// Hadoop job waves cycle every 3 h; measure across full waves so the
	// saturated crests (where Turbo pays off) are covered.
	s.Run(time.Minute)
	s.ResetWork()
	s.Run(6 * time.Hour)
	base := s.StatsForService("hadoop")
	if base.Servers == 0 {
		t.Skip("no hadoop servers in tiny spec mix")
	}
	s.SetTurboForService("hadoop", true)
	s.ResetWork()
	s.Run(6 * time.Hour)
	boosted := s.StatsForService("hadoop")
	if boosted.Delivered <= base.Delivered {
		t.Errorf("turbo should raise delivered work: %v -> %v", base.Delivered, boosted.Delivered)
	}
}

func TestSimValidatorMeter(t *testing.T) {
	s, err := New(Config{
		Spec: tinySpec(), Seed: 9, EnableDynamo: true,
		ValidatorInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	// Validators should not fire warnings when aggregation is honest.
	for _, a := range s.Alerts {
		if a.Level >= core.AlertWarning {
			t.Errorf("unexpected alert: %v", a)
		}
	}
}

func TestSimAtSchedulesEvents(t *testing.T) {
	s, _ := New(Config{Spec: tinySpec(), Seed: 10})
	fired := time.Duration(0)
	s.At(45*time.Second, func() { fired = s.Loop.Now() })
	s.Run(time.Minute)
	if fired != 45*time.Second {
		t.Errorf("event fired at %v", fired)
	}
}
