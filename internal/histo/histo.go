// Package histo provides a small log-bucketed histogram for latency
// distributions. The store records each operation's virtual-cycle latency
// into one; so does the virtual-time cluster experiment, per request.
// Recording is allocation-free and O(1); quantiles are approximate with
// ~19% worst-case relative error (power-of-two buckets with four
// sub-buckets per octave).
package histo

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// subBuckets per power of two; 4 gives <= 2^(1/4)-1 ~ 19% bucket width.
const subBuckets = 4

// numBuckets covers values up to 2^60.
const numBuckets = 60 * subBuckets

// Histogram accumulates non-negative integer samples (cycles, ns, ...).
// It is not safe for concurrent use; Merge combines per-thread instances.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < 2 {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(v)
	// Position within the octave, in quarters.
	frac := (v - 1<<exp) * subBuckets >> exp
	idx := exp*subBuckets + int(frac)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketUpper returns the (inclusive) upper bound of a bucket. For small
// octaves the sub-bucket width rounds down to zero, so the bound is
// clamped to the bucket's own lower edge.
func bucketUpper(idx int) uint64 {
	if idx < 2 {
		return uint64(idx)
	}
	exp := idx / subBuckets
	frac := uint64(idx % subBuckets)
	lower := 1<<exp + frac<<exp/subBuckets
	upper := 1<<exp + (frac+1)<<exp/subBuckets
	if upper > lower {
		upper--
	}
	if upper < lower {
		upper = lower
	}
	return uint64(upper)
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact arithmetic mean.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max are exact.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded sample.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1),
// accurate to the bucket width. Quantile(0.5) is the median estimate.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i]
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				return h.max
			}
			return u
		}
	}
	return h.max
}

// Merge adds another histogram's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histo{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "histo{n=%d mean=%.0f p50=%d p99=%d max=%d}",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
	return b.String()
}
