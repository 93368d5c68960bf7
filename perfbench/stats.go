package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail can be reported at, lowest
// first. Reporting on a fixed ladder (instead of the exact n-10 order
// statistic) keeps the percentile the same from run to run while the
// session count drifts.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 0-based nearest-rank index of percentile p among n
// sorted samples.
func rankOf(n int, p float64) int {
	// The small offset keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tail is a tail latency with the percentile it was taken at and the
// sample count behind it.
type tail struct {
	Value      float64
	Percentile float64 // 100 means the maximum (too few samples for any ladder step)
	Samples    int
}

// tailOf picks the highest ladder percentile, at most ceiling, that
// leaves at least minBeyond samples above it. With too few samples for
// any ladder step it reports the maximum, flagged as percentile 100.
func tailOf(xs []float64, ceiling float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if p > ceiling {
			continue
		}
		r := rankOf(n, p)
		if n-1-r >= minBeyond {
			return tail{Value: s[r], Percentile: p, Samples: n}
		}
	}
	return tail{Value: s[n-1], Percentile: 100, Samples: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
