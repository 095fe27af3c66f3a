package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{2, 4, 6}); !almostEqual(got, 4) {
		t.Errorf("Mean = %g", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("q=%g: %v", c.q, err)
		}
		if !almostEqual(got, c.want) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile accepted")
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("q > 1 accepted")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("NaN q accepted")
	}
	if got, _ := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton quantile = %g", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(99)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		var want float64
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if got := Median(xs); !almostEqual(got, want) {
			t.Fatalf("n=%d: Median = %g, want %g", n, got, want)
		}
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) should be 0")
	}
}
