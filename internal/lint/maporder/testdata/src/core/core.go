package core

import (
	"sort"

	"rpc"
	"telemetry"
)

// ring is the bounded FIFO a controller's journal and event ring share.
type ring[T any] struct{ buf []T }

func (r *ring[T]) add(v T) { r.buf = append(r.buf, v) }

type Journal struct{ ring[int] }

func (j *Journal) Add(rec int) { j.add(rec) }

type event struct{ kind int }

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `maporder: appending to keys in map-iteration order`
	}
	return keys
}

// The collect-then-sort idiom is the sanctioned fix and is recognized.
func appendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A sort after the enclosing loop also sanctions appends in nested loops.
func appendSortedNested(groups map[int]map[string]int) []string {
	var all []string
	for i := 0; i < 3; i++ {
		for k := range groups[i] {
			all = append(all, k)
		}
	}
	sort.Strings(all)
	return all
}

func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `maporder: order-dependent float accumulation into total`
	}
	return total
}

// Integer accumulation is exact — order cannot show.
func sumInts(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Per-key accumulation touches each key once — commutative.
func foldKeyed(dst map[string]float64, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// A fresh accumulator per iteration cannot leak order either.
func perIteration(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		out[k] = sum
	}
	return out
}

func emitters(m map[string]int, events *ring[event], g *telemetry.Gauge, c *telemetry.Counter, h *telemetry.Histogram, j *Journal, cl *rpc.Client) {
	for k, v := range m {
		events.add(event{v})  // want `maporder: ring add call inside map iteration`
		g.Set(float64(v))     // want `maporder: telemetry Gauge.Set call inside map iteration`
		j.Add(v)              // want `maporder: journal Add call inside map iteration`
		j.add(v)              // want `maporder: journal add call inside map iteration`
		_ = cl.Call(k, nil)   // want `maporder: rpc Call call inside map iteration`
		c.Inc()               // counters commute — fine
		h.Observe(float64(v)) // histograms commute — fine
	}
}

func allowed(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:allow maporder — order re-established by the caller's digest sort
		keys = append(keys, k)
	}
	return keys
}

func badDirective(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:allow maporder // want `requires a reason`
		keys = append(keys, k) // want `maporder: appending to keys in map-iteration order`
	}
	return keys
}

// Ranging over a slice is never flagged.
func sliceRange(s []float64) float64 {
	var total float64
	for _, v := range s {
		total += v
	}
	return total
}
