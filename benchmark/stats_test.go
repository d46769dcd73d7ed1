package main

import (
	"math"
	"testing"
)

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, sorted
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Every result is one of the samples, never an interpolation.
	if got := percentile([]float64{1, 10}, 0.5); got != 1 {
		t.Errorf("percentile({1,10}, 0.5) = %v, want the sample 1", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median({9,1,5}) = %v, want 5", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{100, 120}, {150, 160}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {120, 160}, {130, 140}}, 50},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"outside the parent", []interval{{0, 50}, {250, 300}}, 100},
		{"covering it all", []interval{{90, 210}}, 0},
		{"unsorted", []interval{{180, 190}, {100, 110}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
