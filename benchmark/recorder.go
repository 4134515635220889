package main

import (
	"math"
	"sort"

	"sharedwd/internal/stats"
)

// Latencies are kept as raw samples and sorted once at the end:
// stats.Histogram clamps its top bucket, which is how a 9.99 ms p95 came to
// be reported for every shard count.

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// supportedTail returns the highest of p50, p90, p99, p99.9 and p99.99 that
// has at least ten samples beyond it, 0 when even the median has not.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10-1e-9 { // 100 × (1 − 0.9) is 9.999999999999998
			best = q
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver's spread check uses. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// latencyWindows is how many equal stretches of the timed region a latency
// percentile is taken over.
const latencyWindows = 10

// windowedQuantile splits the timed region [0, d) into latencyWindows equal
// stretches by each sample's time at, takes the q-quantile of every stretch
// and returns their interquartile mean: the mean of what is left when the
// lowest and the highest quarter of the stretches are dropped. A stall — a
// collection, a neighbour on the host, one congested episode — lands in one
// or two stretches and is dropped, where it would decide a whole-run p99 by
// itself; a tail that is slow throughout still shows in full. The mean of
// the middle, not the median, because serving latency is quantized in
// rounds: a p99 that sits between "two rounds" and "three rounds" makes a
// median jump by a third when one stretch changes sides, and a mean move by
// a twentieth.
func windowedQuantile(at, ns []float64, d float64, q float64) float64 {
	windows := make([][]float64, latencyWindows)
	for i, t := range at {
		w := int(t / d * latencyWindows)
		if w < 0 {
			w = 0
		} else if w >= latencyWindows {
			w = latencyWindows - 1
		}
		windows[w] = append(windows[w], ns[i])
	}
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			qs = append(qs, quantile(w, q))
		}
	}
	sort.Float64s(qs)
	drop := len(qs) / 4
	return stats.Mean(qs[drop : len(qs)-drop])
}
