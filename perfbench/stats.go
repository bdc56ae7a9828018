package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here match the ones an outside check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that leaves at least
// ten samples beyond it, its value (nearest rank) and the number of
// samples beyond. With fewer than twenty samples no candidate
// qualifies and the median (p50) stands in.
func tail(xs []float64) (pct, value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, math.NaN(), 0
	}
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p, s[rank-1], n - rank
		}
	}
	return 50, median(s), n / 2
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
