package main

import (
	"math"
	"sort"
	"time"
)

// samples collects per-operation timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle samples of an even-sized set, so a median
// over few samples does not snap to one of them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercents is the ladder tail percentiles are chosen from.
var tailPercents = []int{99, 95, 90, 75}

// tailPercent returns the highest percentile of the ladder that still has
// at least ten of n samples beyond it, or 50 when none does: a tail read
// from fewer samples than that is mostly noise.
func tailPercent(n int) int {
	for _, p := range tailPercents {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// tail returns the tail percentile chosen by tailPercent and its value.
func tail(xs []float64) (pct int, v float64) {
	pct = tailPercent(len(xs))
	if pct == 50 {
		return pct, median(xs)
	}
	return pct, quantile(xs, float64(pct)/100)
}

// interval is one in-flight span of a call into a layer.
type interval struct{ start, end time.Time }

// unionDuration is the total time covered by at least one interval: the
// time a layer was busy, however many calls overlapped.
func unionDuration(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = x
			continue
		}
		if x.end.After(cur.end) {
			cur.end = x.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule the
// acceptance driver applies to the ten runs of a set; it needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}
