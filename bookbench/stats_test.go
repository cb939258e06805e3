package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

// A percentile is reportable only with at least ten samples above it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{5300, 0.99, 53, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.5, 0, false},
	} {
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
		if got := supported(tc.n, tc.q); got != tc.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

func TestChunksCloseOnceP99IsSupported(t *testing.T) {
	pass := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	var c chunker
	c.add(pass(600, 1), pass(600, 0.1), 1, 600)
	if cs := c.stats(); len(cs) != 1 || c.last != nil {
		t.Fatalf("a lone partial chunk must still be reported: %d chunks, closed %v", len(cs), c.last != nil)
	}
	c.add(pass(600, 2), pass(600, 0.2), 1, 600) // 1200 samples: p99 supported, chunk closes
	c.add(pass(1000, 3), pass(1010, 0.3), 2, 990)
	c.add(pass(300, 4), pass(300, 0.4), 1, 300) // partial, folds into the last chunk
	cs := c.stats()
	want := []chunkStats{
		{p50: 1, p99: 2, rps: 600, lateP99: 0.2, samples: 1200},
		{p50: 3, p99: 4, rps: 430, lateP99: 0.4, samples: 1300},
	}
	if len(cs) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(cs), len(want))
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Errorf("chunk %d = %+v, want %+v", i, cs[i], want[i])
		}
	}
	if c.samples != 2500 {
		t.Errorf("samples = %d, want 2500", c.samples)
	}
	if len(c.last.latMs) != 1000 {
		t.Errorf("folding the partial chunk modified the closed chunk in place")
	}
	if got := medianOver(cs, func(c chunkStats) float64 { return c.rps }); got != 430 {
		t.Errorf("median chunk rate = %v, want 430", got)
	}
}
