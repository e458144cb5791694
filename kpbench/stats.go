package main

import (
	"math"
	"sort"
	"time"
)

// inf stands for a failed request's latency: over every limit.
var inf = math.Inf(1)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs is sorted in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowedRate splits [0, span) into windows equal slices and returns
// the median over the slices of events per second, given each event's
// offset. A stall that hits one slice moves one slice, not the result.
func windowedRate(at []time.Duration, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	perSec := make([]float64, windows)
	for _, t := range at {
		if t >= 0 && t < span {
			perSec[int(int64(t)*windows/int64(span))]++
		}
	}
	for i := range perSec {
		perSec[i] /= span.Seconds() / windows
	}
	return median(perSec)
}
