package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the benchmark reports it: a tail read off fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. It refuses a
// percentile with fewer than minBeyond samples ranked above it.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, fmt.Errorf("p%d of %d samples is undefined", p, n)
	}
	if beyond := n - rank(n, p); beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, p)-1], nil
}

// rank is the 1-based nearest rank of percentile p among n samples,
// ceil(p·n/100), in integer arithmetic so that p90 of 100 is rank 90.
func rank(n, p int) int { return (p*n + 99) / 100 }

// minSamples is the sample count percentile p needs to be reported.
func minSamples(p int) int {
	n := minBeyond + 1
	for n-rank(n, p) < minBeyond {
		n++
	}
	return n
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count). It is for aggregating repeated whole measurements, such
// as set-up repetitions, not for latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
