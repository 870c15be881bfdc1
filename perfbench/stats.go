package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// Quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether the rule allows reporting it: for p < 1 at least minBeyond
// samples must lie strictly beyond the returned rank. The median (p =
// 0.5) of a non-empty sample is always reportable. xs need not be
// sorted; it is not modified.
func Quantile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	ok := p <= 0.5 || n-rank >= minBeyond
	return s[rank-1], ok
}

// Median is the 0.5 quantile.
func Median(xs []float64) float64 {
	v, _ := Quantile(xs, 0.5)
	return v
}

// Metric is one reported number with the base it was computed from:
// N is the sample count for a percentile or median, or the
// denominator of a ratio.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int64
	Base  string // human-readable base, e.g. "120000 records"
	Valid bool   // false when the percentile rule or a base of 0 forbids the value
}

// Tail reports the p-quantile of xs as metric name, marking it invalid
// when the percentile rule does not allow it. An invalid tail still
// carries the highest sample, the best bound available.
func Tail(name, unit string, xs []float64, p float64) Metric {
	v, ok := Quantile(xs, p)
	if !ok && len(xs) > 0 {
		v, _ = Quantile(xs, 1)
	}
	return Metric{Name: name, Value: v, Unit: unit, N: int64(len(xs)),
		Base: fmt.Sprintf("%d samples", len(xs)), Valid: ok}
}

// Windowed reports the median, across windows, of each window's
// p-quantile. A window whose quantile the percentile rule forbids is
// left out; the metric is valid only when at least minWindows remain.
// Medians over windows keep one stalled second from setting a run's
// number.
func Windowed(name, unit string, windows [][]float64, p float64) Metric {
	var per []float64
	total := 0
	for _, w := range windows {
		total += len(w)
		if v, ok := Quantile(w, p); ok {
			per = append(per, v)
		}
	}
	return Metric{Name: name, Value: Median(per), Unit: unit, N: int64(len(per)),
		Base:  fmt.Sprintf("median over %d windows of %d samples", len(per), total),
		Valid: len(per) >= minWindows}
}

// minWindows is the fewest reportable windows a Windowed metric needs.
const minWindows = 3

// Ratio reports num/den with its base. A zero denominator yields 0 and
// an invalid metric, never a division by zero.
func Ratio(name, unit string, num, den float64, base string) Metric {
	m := Metric{Name: name, Unit: unit, N: int64(den), Base: fmt.Sprintf("%g %s", den, base)}
	if den == 0 {
		return m
	}
	m.Value = num / den
	m.Valid = true
	return m
}

// Count reports a plain count (its own base).
func Count(name, unit string, v float64) Metric {
	return Metric{Name: name, Value: v, Unit: unit, N: 1, Base: "count", Valid: true}
}

// durationsMs converts nanosecond samples to milliseconds.
func durationsMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// durationsUs converts nanosecond samples to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// flatten concatenates windows.
func flatten(ws [][]float64) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w...)
	}
	return out
}
