package experiments

import (
	"strings"
	"testing"
	"time"
)

// Experiments run at reduced scale in tests; every assertion is a *shape*
// property from the paper (who wins, by roughly what factor, where
// crossovers fall), not an absolute number.

func testOpts() Options { return Options{Seed: 1, Scale: 0.25} }

func TestFigure1Shape(t *testing.T) {
	res := Figure1(testOpts())
	w11, h15 := res.Watts["westmere2011"], res.Watts["haswell2015"]
	if len(w11) != len(res.Utils) || len(h15) != len(res.Utils) {
		t.Fatal("curve lengths")
	}
	last := len(res.Utils) - 1
	// 2015 peak power nearly doubles the 2011 server's (Fig 1).
	if ratio := h15[last] / w11[last]; ratio < 1.4 {
		t.Errorf("2015/2011 peak ratio = %.2f", ratio)
	}
	// Both curves increase monotonically with utilization.
	for i := 1; i <= last; i++ {
		if w11[i] < w11[i-1] || h15[i] < h15[i-1] {
			t.Fatal("power not monotone in utilization")
		}
	}
	// At idle the two generations are comparable (both ~90-95 W).
	if w11[0] < 60 || w11[0] > 120 || h15[0] < 60 || h15[0] > 120 {
		t.Errorf("idle powers: 2011=%v 2015=%v", w11[0], h15[0])
	}
}

func TestFigure3Shape(t *testing.T) {
	res := Figure3(testOpts())
	for cls, curve := range res.TripSeconds {
		for i := 1; i < len(curve); i++ {
			if curve[i] >= curve[i-1] {
				t.Errorf("%s trip curve not decreasing at ratio %.2f", cls, res.Ratios[i])
			}
		}
	}
	// Lower-level devices sustain more overdraw: at 1.1×, rack > RPP > SB > MSB.
	i := indexOf(res.Ratios, 1.1)
	if !(res.TripSeconds["Rack"][i] > res.TripSeconds["RPP"][i] &&
		res.TripSeconds["RPP"][i] > res.TripSeconds["SB"][i] &&
		res.TripSeconds["SB"][i] > res.TripSeconds["MSB"][i]) {
		t.Error("hierarchy ordering violated at 1.1x overdraw")
	}
	// RPP sustains 10% overdraw for on the order of 17 minutes.
	if s := res.TripSeconds["RPP"][i]; s < 600 || s > 1500 {
		t.Errorf("RPP trip at 1.1x = %.0fs, want ~1000s", s)
	}
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestFigure4Metric(t *testing.T) {
	res := Figure4(testOpts())
	if res.V2 <= res.V1 {
		t.Errorf("larger window variation v2=%v should exceed v1=%v", res.V2, res.V1)
	}
	if res.V2 != 40 { // full swing of the synthetic trace: 130-90
		t.Errorf("v2 = %v, want 40", res.V2)
	}
}

func TestFigure5Shape(t *testing.T) {
	res := Figure5(testOpts())
	w60 := 60 * time.Second
	// Observation 2: higher aggregation level → smaller relative variation.
	if !(res.P99["rack"][w60] > res.P99["rpp"][w60] &&
		res.P99["rpp"][w60] > res.P99["sb"][w60] &&
		res.P99["sb"][w60] >= res.P99["msb"][w60]*0.8) {
		t.Errorf("level ordering violated: rack=%.3f rpp=%.3f sb=%.3f msb=%.3f",
			res.P99["rack"][w60], res.P99["rpp"][w60], res.P99["sb"][w60], res.P99["msb"][w60])
	}
	// Observation 1: larger windows → larger variation, per level.
	for _, level := range []string{"rack", "rpp", "sb", "msb"} {
		if res.P99[level][600*time.Second] <= res.P99[level][3*time.Second] {
			t.Errorf("%s: 600s p99 should exceed 3s p99", level)
		}
	}
	// Sub-minute variation is material (the design implication driving
	// Dynamo's 3 s sampling): rack-level 60 s p99 well above 10%.
	if res.P99["rack"][w60] < 0.10 {
		t.Errorf("rack 60s p99 = %.3f, want > 0.10", res.P99["rack"][w60])
	}
}

func TestFigure6Shape(t *testing.T) {
	res := Figure6(testOpts())
	// f4storage: lowest p50 of all services.
	for svc, p50 := range res.P50 {
		if svc == "f4storage" {
			continue
		}
		if res.P50["f4storage"] >= p50 {
			t.Errorf("f4storage p50 %.3f should be lowest (vs %s %.3f)",
				res.P50["f4storage"], svc, p50)
		}
	}
	// f4storage p99 far exceeds its own p50 (spiky signature).
	if res.P99["f4storage"] < 5*res.P50["f4storage"] {
		t.Errorf("f4storage p99/p50 = %.1f, want > 5",
			res.P99["f4storage"]/res.P50["f4storage"])
	}
	// web and newsfeed carry the highest p50 variation.
	if res.P50["web"] < res.P50["cache"] || res.P50["newsfeed"] < res.P50["database"] {
		t.Error("web/newsfeed should out-vary cache/database at p50")
	}
}

func TestFigure9Shape(t *testing.T) {
	res := Figure9(testOpts())
	if res.CapSettle <= 0 || res.CapSettle > 3500*time.Millisecond {
		t.Errorf("cap settle = %v, want ≈2 s", res.CapSettle)
	}
	if res.UncapSettle <= 0 || res.UncapSettle > 3500*time.Millisecond {
		t.Errorf("uncap settle = %v, want ≈2 s", res.UncapSettle)
	}
	// Power during the capped window stays at the target.
	mid := res.CapAt + 4*time.Second
	for i := 0; i < res.Series.Len(); i++ {
		ts, v := res.Series.At(i)
		if ts > mid && ts < res.UncapAt {
			if v > float64(res.Target)+5 {
				t.Errorf("capped power %v above target %v at %v", v, res.Target, ts)
			}
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	res := Figure10(testOpts())
	if res.CapCount != 1 {
		t.Errorf("cap transitions = %d, want exactly 1 (no oscillation)", res.CapCount)
	}
	if res.UncapCount != 1 {
		t.Errorf("uncap transitions = %d, want exactly 1", res.UncapCount)
	}
}

func TestFigure11Shape(t *testing.T) {
	res := Figure11(testOpts())
	if res.Tripped {
		t.Fatal("PDU breaker tripped despite Dynamo")
	}
	if res.FirstCap == 0 {
		t.Fatal("capping never triggered")
	}
	// Capping happens during the load test (after 10:40, before 11:45).
	if res.FirstCap < 10*time.Hour+40*time.Minute || res.FirstCap > 11*time.Hour+45*time.Minute {
		t.Errorf("first cap at %v, want during the load test", res.FirstCap)
	}
	if res.FirstUncap == 0 || res.FirstUncap < res.FirstCap {
		t.Errorf("uncap at %v, want after cap %v", res.FirstUncap, res.FirstCap)
	}
	// While capped, power must never exceed the breaker limit.
	if res.PeakAfterCap > res.Limit {
		t.Errorf("peak after cap %v exceeds limit %v", res.PeakAfterCap, res.Limit)
	}
}

func TestFigure12Shape(t *testing.T) {
	res := Figure12(Options{Seed: 1, Scale: 0.4})
	if res.TrippedWithDynamo {
		t.Fatal("SB breaker tripped despite Dynamo")
	}
	if !res.TrippedBaseline {
		t.Fatal("baseline (no Dynamo) should have tripped — the counterfactual outage")
	}
	if res.MaxContracted < 3 {
		t.Errorf("offender rows contracted = %d, want >= 3", res.MaxContracted)
	}
	// Capping kicks in shortly after the 12:48 recovery surge.
	if res.CapTime < 12*time.Hour+48*time.Minute || res.CapTime > 13*time.Hour {
		t.Errorf("cap time %v, want shortly after 12:48", res.CapTime)
	}
	if res.UncapTime != 0 && res.UncapTime < res.CapTime {
		t.Error("uncap before cap")
	}
}

func TestFigure13Shape(t *testing.T) {
	res := Figure13(testOpts())
	// Slowdown below 20% reduction is modest; beyond, it accelerates.
	at := func(pct float64) float64 {
		for i, r := range res.ReductionPct {
			if r == pct {
				return res.SlowdownPct[i]
			}
		}
		t.Fatalf("missing point %v", pct)
		return 0
	}
	if at(10) > 15 {
		t.Errorf("slowdown at 10%% = %.1f%%, want modest", at(10))
	}
	if at(20) > 30 {
		t.Errorf("slowdown at 20%% = %.1f%%, want < 30%%", at(20))
	}
	if at(40) < 2*at(20) {
		t.Errorf("slowdown should accelerate past the knee: 20%%->%.1f 40%%->%.1f", at(20), at(40))
	}
	if res.KneePct < 15 || res.KneePct > 30 {
		t.Errorf("knee at %.0f%%, want ≈20%%", res.KneePct)
	}
}

func TestFigure14Shape(t *testing.T) {
	res := Figure14(Options{Seed: 1, Scale: 0.25})
	if res.Tripped {
		t.Fatal("SB tripped despite Dynamo")
	}
	if res.Episodes == 0 {
		t.Fatal("expected capping episodes during Turbo waves")
	}
	if res.MaxCapped == 0 {
		t.Fatal("expected capped servers")
	}
	if res.ThroughputGain <= 0 {
		t.Errorf("Turbo throughput gain = %.3f, want positive", res.ThroughputGain)
	}
	// SB power stays at or below the limit (within the cap threshold).
	if peak := res.SBSeries.Max(); peak > float64(res.SBLimit)*1.005 {
		t.Errorf("SB peak %.0f exceeded limit %v", peak, res.SBLimit)
	}
}

func TestFigure15Shape(t *testing.T) {
	res := Figure15(testOpts())
	if res.CacheCappedDuring != 0 {
		t.Errorf("cache servers capped = %d, want 0 (higher priority group)", res.CacheCappedDuring)
	}
	if res.WebCappedDuring == 0 {
		t.Error("web servers should have been capped")
	}
	if res.FeedCappedDuring == 0 {
		t.Error("newsfeed servers should have been capped")
	}
}

func TestFigure16Shape(t *testing.T) {
	res := Figure16(testOpts())
	if len(res.Servers) == 0 {
		t.Fatal("no snapshot")
	}
	anyCapped := false
	for _, sn := range res.Servers {
		if sn.Service == "cache" && sn.Capped {
			t.Errorf("cache server %s capped", sn.ID)
		}
		if sn.Capped {
			anyCapped = true
			if sn.Cap < 210-1e-9 {
				t.Errorf("cap %v below the 210 W floor", sn.Cap)
			}
		}
	}
	if !anyCapped {
		t.Fatal("expected capped servers in snapshot")
	}
	if res.MinCapSeen < 210-1e-9 {
		t.Errorf("minimum cap %v below floor", res.MinCapSeen)
	}
}

func TestTableIShape(t *testing.T) {
	res := TableI(Options{Seed: 1, Scale: 0.2})
	if res.OutagesPrevented == 0 || res.OutagesPrevented < res.SurgeEvents/2 {
		t.Errorf("outages prevented = %d of %d", res.OutagesPrevented, res.SurgeEvents)
	}
	if res.HadoopServerGain < 0.10 || res.HadoopServerGain > 0.16 {
		t.Errorf("hadoop gain = %.3f, want ≈0.13", res.HadoopServerGain)
	}
	if res.SearchQPSGain < 0.20 {
		t.Errorf("search QPS gain = %.3f, want substantial (paper: up to 0.40)", res.SearchQPSGain)
	}
	if res.ExtraServersPct < 5 {
		t.Errorf("oversubscription gain = %.1f%%, want >= 5%%", res.ExtraServersPct)
	}
	if res.MonitoringInterval != 3*time.Second {
		t.Error("monitoring granularity should be 3 s")
	}
}

func TestReportWriterReceivesOutput(t *testing.T) {
	var sb strings.Builder
	Figure1(Options{Seed: 1, Scale: 0.25, W: &sb})
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Error("report output missing")
	}
}

// TestAblationsDirection asserts each design ablation's direction on
// seeds 1–5: the paper's choice beats the alternative it argues against.
func TestAblationsDirection(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := Ablations(Options{Seed: seed})
		if res.ThreeBandCaps != 1 || res.SingleThresholdCaps < 10*res.ThreeBandCaps {
			t.Errorf("seed %d: cap transitions three-band %d, single threshold %d; want 1 and at least 10× more",
				seed, res.ThreeBandCaps, res.SingleThresholdCaps)
		}
		if res.Trips3s != 0 || res.Trips2min == 0 {
			t.Errorf("seed %d: trips with a 3 s poll %d, with a 2 min poll %d; want 0 and > 0",
				seed, res.Trips3s, res.Trips2min)
		}
		if 2*res.BucketedCapped > res.UniformCapped {
			t.Errorf("seed %d: servers capped high-bucket-first %d, uniform %d; want under half",
				seed, res.BucketedCapped, res.UniformCapped)
		}
		if !(res.ThreeBandSettle < res.PIDSettle && res.PIDSettle <= 1) {
			t.Errorf("seed %d: settled power / limit three-band %.4f, PID %.4f; want three-band < PID <= 1",
				seed, res.ThreeBandSettle, res.PIDSettle)
		}
	}
}
