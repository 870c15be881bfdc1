package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Quantile must not rely on order
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {1, 100}} {
		if got, _ := Quantile(xs, tc.p); got != tc.want {
			t.Errorf("Quantile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("Quantile sorted its input in place")
	}
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	// p90 of 100 samples has exactly 10 beyond it: reportable.
	if _, ok := Quantile(seq(100), 0.9); !ok {
		t.Error("p90 of 100 samples should be reportable")
	}
	// p90 of 99 samples has only 9 beyond it.
	if _, ok := Quantile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples must not be reportable")
	}
	// p99 needs 1000 samples.
	if _, ok := Quantile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples must not be reportable")
	}
	if _, ok := Quantile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples should be reportable")
	}
	// A median is always reportable; an empty sample never is.
	if _, ok := Quantile(seq(1), 0.5); !ok {
		t.Error("median of one sample should be reportable")
	}
	if _, ok := Quantile(nil, 0.5); ok {
		t.Error("quantile of no samples must not be reportable")
	}
}

func TestTailStatesSampleCount(t *testing.T) {
	m := Tail("x_p90_ms", "ms", seq(50), 0.9)
	if m.Valid {
		t.Error("p90 of 50 samples reported as valid")
	}
	if m.N != 50 || m.Base != "50 samples" {
		t.Errorf("tail base = %d %q, want 50 \"50 samples\"", m.N, m.Base)
	}
	if m.Value != 50 {
		t.Errorf("unreportable tail carries %v, want the maximum 50", m.Value)
	}
	m = Tail("x_p90_ms", "ms", seq(200), 0.9)
	if !m.Valid || m.Value != 180 || m.N != 200 {
		t.Errorf("p90 of 1..200 = %+v", m)
	}
}

func TestWindowedMedianOfWindowQuantiles(t *testing.T) {
	// Three windows of 100 samples with p90s 90, 180 and 900 (one
	// stalled window): the median over windows is 180.
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	ws := [][]float64{seq(100), scale(seq(100), 2), scale(seq(100), 10)}
	m := Windowed("f", "ms", ws, 0.9)
	if !m.Valid || m.Value != 180 || m.N != 3 {
		t.Errorf("Windowed = %+v, want 180 over 3 windows", m)
	}
	// A window too small for its p90 is left out, and two windows are
	// too few.
	m = Windowed("f", "ms", [][]float64{seq(100), seq(20), seq(100)}, 0.9)
	if m.Valid || m.N != 2 {
		t.Errorf("Windowed with one short window = %+v, want invalid over 2", m)
	}
}

func TestRatioCarriesBase(t *testing.T) {
	m := Ratio("bench.fail_ratio", "ratio", 3, 1000, "attempted operations")
	if !m.Valid || m.Value != 0.003 || m.N != 1000 || m.Base != "1000 attempted operations" {
		t.Errorf("Ratio = %+v", m)
	}
	z := Ratio("bench.fail_ratio", "ratio", 0, 0, "attempted operations")
	if z.Valid || z.Value != 0 || math.IsNaN(z.Value) {
		t.Errorf("Ratio over a zero base = %+v, want invalid 0", z)
	}
}

func TestFailRatioCountsEveryFailure(t *testing.T) {
	r := &run{}
	r.attempted = 400
	r.problem(3, "three stored records missing")
	r.problem(1, "one query check failed")
	m := Ratio("bench.fail_ratio", "ratio", float64(r.failed), float64(r.attempted), "attempted operations")
	if m.Value != 0.01 || len(r.problems) != 2 {
		t.Errorf("fail ratio = %v over %d problems, want 0.01 over 2", m.Value, len(r.problems))
	}
}
