package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTailSamples is the sample count a p95 needs to have ten samples
// beyond it; thinner tails are printed but flagged.
const minTailSamples = 200

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1), or NaN
// for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// allocSnap is the process allocation counters at one instant.
type allocSnap struct{ bytes, mallocs uint64 }

func readAlloc() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{ms.TotalAlloc, ms.Mallocs}
}

func (a allocSnap) sub(b allocSnap) allocSnap {
	return allocSnap{a.bytes - b.bytes, a.mallocs - b.mallocs}
}

func (a allocSnap) mib() float64 { return float64(a.bytes) / (1 << 20) }

// peakRSSMiB returns the process's peak resident set size so far
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
