//go:build linux

package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted by the nearest-rank rule, so
// it is always one of the samples. It is NaN for an empty slice.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// median sorts a copy of v and returns its middle sample.
func median[T int64 | float64](v []T) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}
