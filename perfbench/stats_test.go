package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return s
}

func TestPercentileReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		gotPct  float64
		gotVal  float64
		comment string
	}{
		{2000, 99, 99, 1980, "20 samples beyond p99"},
		{1000, 99, 99, 990, "exactly 10 beyond p99"},
		{999, 99, 90, 900, "9.99 beyond p99: falls back to p90"},
		{10000, 99.9, 99.9, 9990, "10 beyond p99.9"},
		{5000, 99.9, 99, 4950, "5 beyond p99.9: falls back to p99"},
		{50, 99, 50, 25, "too few for p90: the median"},
		{5, 99, 50, 3, "too few for any tail: the median"},
		{2000, 50, 50, 1000, "the median is asked for directly"},
	} {
		q := percentile(seq(tc.n), tc.want)
		if q.Pct != tc.gotPct || q.Value != tc.gotVal || q.N != tc.n {
			t.Errorf("%s: percentile(n=%d, %v) = %+v, want pct %v value %v n %d",
				tc.comment, tc.n, tc.want, q, tc.gotPct, tc.gotVal, tc.n)
		}
	}
	if q := percentile(nil, 99); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: %+v", q)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

// A hand-built span tree: a root [0,100) with children that overlap each
// other, nest, and stick out past the root's end.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	root := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 75},
		{"overlapping counted once", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the span", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside the span", []interval{{100, 120}, {-10, 0}}, 100},
		{"unsorted mix", []interval{{90, 120}, {20, 50}, {10, 30}}, 50},
		{"covers everything", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(root, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
