package noise

import (
	"math"
	"math/rand/v2"
	"testing"
)

var _ rand.Source = (*Stream)(nil)

// TestStreamIsSplitMix64 pins the stream to the reference SplitMix64
// sequence (Vigna's splitmix64.c started at state 0) and the seeded
// counter to Mix64(seed).
func TestStreamIsSplitMix64(t *testing.T) {
	s := Stream{}
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d from state 0: %#x, want %#x", i, got, want)
		}
	}
	seeded, counter := NewStream(42), Stream{Mix64(42)}
	for i := 0; i < 8; i++ {
		if a, b := seeded.Uint64(), counter.Uint64(); a != b {
			t.Fatalf("draw %d: NewStream(42) gives %#x, a counter at Mix64(42) %#x", i, a, b)
		}
	}
}

// TestAdjacentSeedsUncorrelated: the simulator seeds its streams with
// consecutive integers, so the normals of seeds s and s+1 must be
// uncorrelated, and together they must look like N(0, 1).
func TestAdjacentSeedsUncorrelated(t *testing.T) {
	const seeds, n = 64, 4096
	draws := make([][]float64, seeds)
	var sum, sumSq float64
	for i := range draws {
		r := New(int64(i + 1))
		draws[i] = make([]float64, n)
		for k := range draws[i] {
			x := r.NormFloat64()
			draws[i][k] = x
			sum += x
			sumSq += x * x
		}
	}
	for i := 1; i < seeds; i++ {
		if r := corr(draws[i-1], draws[i]); math.Abs(r) >= 0.05 {
			t.Errorf("seeds %d and %d: correlation %.4f over %d normals, want |r| < 0.05", i, i+1, r, n)
		}
	}
	// Within 3σ of the sampling distribution of N(0, 1)'s mean (σ = 1/√N)
	// and variance (σ = √(2/N)).
	total := float64(seeds * n)
	mean := sum / total
	variance := sumSq/total - mean*mean
	if lim := 3 / math.Sqrt(total); math.Abs(mean) > lim {
		t.Errorf("mean of %v normals = %.5f, want within ±%.5f", total, mean, lim)
	}
	if lim := 3 * math.Sqrt(2/total); math.Abs(variance-1) > lim {
		t.Errorf("variance of %v normals = %.5f, want within 1±%.5f", total, variance, lim)
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
	return cov / math.Sqrt(va*vb)
}
