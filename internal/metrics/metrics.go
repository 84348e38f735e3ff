// Package metrics implements the measurement machinery behind the paper's
// power-characterization study (§II-B): append-only time series, the
// windowed max−min "power variation" metric of Fig 4, the power slope, and
// empirical distributions (CDFs, percentiles) used throughout Figs 5, 6,
// and 13.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is an append-only time series with non-decreasing timestamps.
type Series struct {
	times []time.Duration
	vals  []float64
}

// NewSeries returns an empty series with capacity for n samples.
func NewSeries(n int) *Series {
	return &Series{times: make([]time.Duration, 0, n), vals: make([]float64, 0, n)}
}

// Add appends a sample. Timestamps must be non-decreasing.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.times); n > 0 && t < s.times[n-1] {
		panic(fmt.Sprintf("metrics: non-monotonic sample at %v after %v", t, s.times[n-1]))
	}
	s.times = append(s.times, t)
	s.vals = append(s.vals, v)
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.vals) }

// At returns the i-th sample.
func (s *Series) At(i int) (time.Duration, float64) { return s.times[i], s.vals[i] }

// Values returns the underlying value slice (not a copy).
func (s *Series) Values() []float64 { return s.vals }

// Last returns the most recent sample; ok is false when empty.
func (s *Series) Last() (time.Duration, float64, bool) {
	if len(s.vals) == 0 {
		return 0, 0, false
	}
	n := len(s.vals) - 1
	return s.times[n], s.vals[n], true
}

// Mean returns the arithmetic mean of all values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the maximum value (−Inf when empty).
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum value (+Inf when empty).
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.vals {
		if v < m {
			m = v
		}
	}
	return m
}

// WindowVariations partitions the series into consecutive windows of the
// given duration and returns max−min per window (Fig 4's metric). Windows
// with fewer than two samples are skipped.
func (s *Series) WindowVariations(window time.Duration) []float64 {
	if window <= 0 || len(s.vals) == 0 {
		return nil
	}
	var out []float64
	start := 0
	for start < len(s.vals) {
		end := start
		winEnd := s.times[start] + window
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for end < len(s.vals) && s.times[end] < winEnd {
			v := s.vals[end]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			n++
			end++
		}
		if n >= 2 {
			out = append(out, hi-lo)
		}
		if end == start {
			end++
		}
		start = end
	}
	return out
}

// MaxRise returns the largest increase from a local minimum to a later
// sample within any window of the given duration — the "power slope"
// numerator of §II-B (how fast power can rise).
func (s *Series) MaxRise(window time.Duration) float64 {
	best := 0.0
	j := 0
	lo := math.Inf(1)
	loIdx := 0
	for i := 0; i < len(s.vals); i++ {
		// Slide the window start forward.
		for s.times[i]-s.times[j] > window {
			j++
			if loIdx < j {
				// Recompute the window minimum.
				lo = math.Inf(1)
				for k := j; k <= i; k++ {
					if s.vals[k] < lo {
						lo = s.vals[k]
						loIdx = k
					}
				}
			}
		}
		if s.vals[i] < lo {
			lo = s.vals[i]
			loIdx = i
		}
		if rise := s.vals[i] - lo; rise > best {
			best = rise
		}
	}
	return best
}

// Distribution is an empirical distribution over a sample set.
type Distribution struct {
	sorted []float64
}

// NewDistribution copies and sorts the samples.
func NewDistribution(samples []float64) *Distribution {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &Distribution{sorted: s}
}

// Len returns the sample count.
func (d *Distribution) Len() int { return len(d.sorted) }

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between closest ranks. It returns 0 for empty
// distributions.
func (d *Distribution) Percentile(p float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 100 {
		return d.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.sorted[lo]
	}
	frac := rank - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// CDF returns the empirical cumulative probability of value v.
func (d *Distribution) CDF(v float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(d.sorted, v)
	// Include equal values.
	for idx < len(d.sorted) && d.sorted[idx] <= v {
		idx++
	}
	return float64(idx) / float64(len(d.sorted))
}

// Points returns n evenly spaced (value, cumProb) pairs for plotting a CDF
// curve like Figs 5 and 6.
func (d *Distribution) Points(n int) [](struct{ Value, Prob float64 }) {
	if len(d.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([]struct{ Value, Prob float64 }, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1) * 100
		v := d.Percentile(p)
		out = append(out, struct{ Value, Prob float64 }{v, p / 100})
	}
	return out
}

// Summary holds the headline percentiles the paper reports per CDF.
type Summary struct {
	P50, P99 float64
	Mean     float64
	N        int
}

// Summarize computes a Summary for a sample set.
func Summarize(samples []float64) Summary {
	d := NewDistribution(samples)
	var mean float64
	for _, v := range samples {
		mean += v
	}
	if len(samples) > 0 {
		mean /= float64(len(samples))
	}
	return Summary{P50: d.Percentile(50), P99: d.Percentile(99), Mean: mean, N: len(samples)}
}
