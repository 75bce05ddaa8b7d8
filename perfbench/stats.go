package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples a tail percentile must leave above
// itself.
const tailBeyond = 10

// tail returns the highest whole percentile of xs that leaves at least
// tailBeyond samples beyond it, capped at p99 (reached at 1000 samples)
// and never below p50, and its nearest-rank value. With tailBeyond or
// fewer samples no such percentile exists; the maximum is returned as
// p100.
func tail(xs []float64) (pct int, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return 100, s[n-1]
	}
	pct = 100 * (n - tailBeyond) / n
	pct = min(max(pct, 50), 99)
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1]
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
