package main

import "dynamo/internal/metrics"

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return metrics.NewDistribution(xs).Percentile(50)
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
