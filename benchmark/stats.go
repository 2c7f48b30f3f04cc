package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile is nearest-rank selection of the p-quantile (0 < p <= 1) of an
// ascending sample; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the median of xs without reordering it; 0 when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// supported reports whether a sample of n values holds at least ten beyond
// its p-quantile — the rule for which tail percentiles are worth printing.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, returning 0 for an empty denominator (a layer the workload
// never crosses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20

// tailQuantile is the gated tail percentile of every workload. On a shared
// 2-vCPU host the spread of serve-warm's p99 over ten runs reached 0.43, that
// of p95 at most 0.22 on any workload. The human-readable output prints p99
// and p99.9 where the sample supports them.
const tailQuantile = 0.95

// liveHeap returns the bytes of live heap objects. Two collections empty the
// sync.Pool caches as well, which otherwise survive one and leave the figure
// depending on when the last cycle ran.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
