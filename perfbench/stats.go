package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 { return inUnit(ds, "ms") }

func seconds(ds []time.Duration) []float64 { return inUnit(ds, "s") }

// inUnit converts durations to floats in a time unit: s, ms or us.
func inUnit(ds []time.Duration, unit string) []float64 {
	per := map[string]time.Duration{"s": time.Second, "ms": time.Millisecond, "us": time.Microsecond}[unit]
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(per)
	}
	return out
}
