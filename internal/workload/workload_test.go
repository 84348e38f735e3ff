package workload

import (
	"math"
	"testing"
	"time"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	for _, name := range ServiceNames() {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
		if p.BaseUtil <= 0 || p.BaseUtil > 1 {
			t.Errorf("profile %q BaseUtil = %v", name, p.BaseUtil)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("web"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Fatal("expected error for unknown service")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup should panic on unknown service")
		}
	}()
	MustLookup("nosuch")
}

func TestGeneratorBounds(t *testing.T) {
	for _, name := range ServiceNames() {
		sh := NewShared(MustLookup(name), 1)
		g := NewGenerator(sh, 2)
		for i := 0; i < 5000; i++ {
			u := g.Step(time.Duration(i) * 3 * time.Second)
			if u < 0 || u > 1 {
				t.Fatalf("%s: util %v out of [0,1] at step %d", name, u, i)
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() []float64 {
		sh := NewShared(MustLookup("web"), 7)
		g := NewGenerator(sh, 8)
		out := make([]float64, 200)
		for i := range out {
			out[i] = g.Step(time.Duration(i) * 3 * time.Second)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	// Average web utilization at 13:00 should exceed 01:00 (peak vs trough).
	sh := NewShared(MustLookup("web"), 3)
	peak := sh.base(13 * time.Hour)
	trough := sh.base(1 * time.Hour)
	if peak <= trough {
		t.Errorf("diurnal peak %v <= trough %v", peak, trough)
	}
	if math.Abs(peak-(0.45+0.25)) > 0.02 {
		t.Errorf("peak base = %v, want ≈0.70", peak)
	}
}

func TestLoadFactorScalesBase(t *testing.T) {
	sh := NewShared(MustLookup("web"), 3)
	b1 := sh.base(13 * time.Hour)
	sh.SetLoadFactor(1.5)
	b2 := sh.base(13 * time.Hour)
	if math.Abs(b2-1.5*b1) > 1e-9 {
		t.Errorf("load factor 1.5: base %v, want %v", b2, 1.5*b1)
	}
	sh.SetLoadFactor(-1)
	if sh.LoadFactor() != 0 {
		t.Error("negative load factor should clamp to 0")
	}
}

func TestExtraLoadRaisesUtil(t *testing.T) {
	shA := NewShared(MustLookup("cache"), 5)
	gA := NewGenerator(shA, 6)
	shB := NewShared(MustLookup("cache"), 5)
	gB := NewGenerator(shB, 6)
	gB.SetExtraLoad(0.2)
	var sumA, sumB float64
	for i := 0; i < 1000; i++ {
		ts := time.Duration(i) * 3 * time.Second
		sumA += gA.Step(ts)
		sumB += gB.Step(ts)
	}
	if sumB <= sumA {
		t.Errorf("extra load did not raise mean util: %v vs %v", sumB/1000, sumA/1000)
	}
}

func TestCommonModeCorrelation(t *testing.T) {
	// Two servers of the same service share the common-mode process, so
	// their utilizations should be positively correlated; two servers on
	// independent Shared states share only the diurnal curve. One pair's
	// correlation over 4000 steps spreads from about −0.1 to 0.2 around a
	// true value near 0.06, so the assertions are on the mean over many
	// seed pairs (standard error ≈ 0.003).
	const pairs, n = 256, 4000
	var same, diff float64
	u1, u2, u3 := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := int64(0); k < pairs; k++ {
		seed := 1000 + 10*k
		sh := NewShared(MustLookup("web"), seed)
		g1 := NewGenerator(sh, seed+1)
		g2 := NewGenerator(sh, seed+2)
		g3 := NewGenerator(NewShared(MustLookup("web"), seed+3), seed+4)
		for i := 0; i < n; i++ {
			ts := time.Duration(i) * 3 * time.Second
			u1[i] = g1.Step(ts)
			u2[i] = g2.Step(ts)
			u3[i] = g3.Step(ts)
		}
		same += corr(u1, u2) / pairs
		diff += corr(u1, u3) / pairs
	}
	if same < 0.05 {
		t.Errorf("mean same-service correlation = %.3f, want >= 0.05", same)
	}
	if same <= diff {
		t.Errorf("mean same-service corr %.3f should exceed mean cross-shared corr %.3f", same, diff)
	}
}

func corr(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// TestServiceVariationOrdering checks the Fig 6 signature on raw
// utilization: f4storage has the lowest median windowed variation, while
// newsfeed/web have the highest.
func TestServiceVariationOrdering(t *testing.T) {
	med := map[string]float64{}
	for _, name := range ServiceNames() {
		sh := NewShared(MustLookup(name), 31)
		g := NewGenerator(sh, 32)
		n := 6000 // 5 hours at 3 s
		utils := make([]float64, n)
		for i := 0; i < n; i++ {
			utils[i] = g.Step(time.Duration(i) * 3 * time.Second)
		}
		med[name] = medianWindowVariation(utils, 20) // 60 s windows
	}
	if med["f4storage"] >= med["web"] {
		t.Errorf("f4storage median variation %.3f should be < web %.3f", med["f4storage"], med["web"])
	}
	if med["cache"] >= med["newsfeed"] {
		t.Errorf("cache median variation %.3f should be < newsfeed %.3f", med["cache"], med["newsfeed"])
	}
}

func medianWindowVariation(u []float64, w int) float64 {
	var vars []float64
	for i := 0; i+w <= len(u); i += w {
		lo, hi := u[i], u[i]
		for _, v := range u[i : i+w] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		vars = append(vars, hi-lo)
	}
	// median
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	return vars[len(vars)/2]
}

func TestStepIdempotentAtSameTime(t *testing.T) {
	sh := NewShared(MustLookup("web"), 13)
	g := NewGenerator(sh, 14)
	g.Step(3 * time.Second)
	// Stepping again at the same timestamp must not advance noise state
	// through a zero-dt (which would freeze OU) or negative dt.
	u2 := g.Step(3 * time.Second)
	if u2 < 0 || u2 > 1 {
		t.Fatalf("same-time step out of bounds: %v", u2)
	}
}

func TestBatchPatternAlternates(t *testing.T) {
	sh := NewShared(MustLookup("hadoop"), 17)
	g := NewGenerator(sh, 18)
	high, low := 0, 0
	for i := 0; i < 2000; i++ {
		u := g.Step(time.Duration(i) * 3 * time.Second)
		if u > 0.6 {
			high++
		}
		if u < 0.4 {
			low++
		}
	}
	if high == 0 || low == 0 {
		t.Errorf("batch pattern should alternate: high=%d low=%d", high, low)
	}
}

// TestAllProfilesBounded covers every profile in the registry, including
// the extension services not in the Fig 6 characterization (search,
// network).
func TestAllProfilesBounded(t *testing.T) {
	for name, p := range Profiles() {
		sh := NewShared(p, 41)
		g := NewGenerator(sh, 42)
		for i := 0; i < 2000; i++ {
			u := g.Step(time.Duration(i) * 3 * time.Second)
			if u < 0 || u > 1 {
				t.Fatalf("%s: util %v out of range", name, u)
			}
		}
	}
}

// TestSharedBatchPhaseCorrelated: two hadoop generators from the same
// Shared state share the job-wave phase (cluster-wide waves), while
// independent Shared states generally do not.
func TestSharedBatchPhaseCorrelated(t *testing.T) {
	sh := NewShared(MustLookup("hadoop"), 51)
	g1 := NewGenerator(sh, 52)
	g2 := NewGenerator(sh, 53)
	agree := 0
	n := 2000
	for i := 0; i < n; i++ {
		ts := time.Duration(i) * 10 * time.Second
		u1, u2 := g1.Step(ts), g2.Step(ts)
		if (u1 > 0.5) == (u2 > 0.5) {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.85 {
		t.Errorf("same-cluster wave agreement %.2f, want >= 0.85", frac)
	}
}
