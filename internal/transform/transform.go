// Package transform provides the DFT dimensionality reduction the paper's
// pre-processing step names (Section 3.4.1: "various dimension reduction
// techniques such as DFT or Wavelets can be applied"), plus the
// sliding-window embedding that turns 1-D time series into
// w-dimensional sequences (Section 1 / Faloutsos et al.).
package transform

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// DFT computes the discrete Fourier transform of a real signal, returning
// the real and imaginary parts. It is the O(n²) direct form — signal
// lengths in this system are window-sized (tens of samples), where the
// direct form beats FFT bookkeeping and keeps the code dependency-free.
func DFT(signal []float64) (re, im []float64) {
	n := len(signal)
	re = make([]float64, n)
	im = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re[k] += signal[t] * math.Cos(angle)
			im[k] += signal[t] * math.Sin(angle)
		}
	}
	return re, im
}

// InverseDFT reconstructs the signal from its spectrum.
func InverseDFT(re, im []float64) []float64 {
	n := len(re)
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		for k := 0; k < n; k++ {
			angle := 2 * math.Pi * float64(k) * float64(t) / float64(n)
			out[t] += re[k]*math.Cos(angle) - im[k]*math.Sin(angle)
		}
		out[t] /= float64(n)
	}
	return out
}

// DFTFeatures reduces a signal to its first m DFT coefficient magnitudes
// scaled by 1/√n — the energy-preserving map Agrawal et al. index. m must
// not exceed len(signal).
func DFTFeatures(signal []float64, m int) (geom.Point, error) {
	if m < 1 || m > len(signal) {
		return nil, fmt.Errorf("transform: m=%d outside [1,%d]", m, len(signal))
	}
	re, im := DFT(signal)
	scale := 1 / math.Sqrt(float64(len(signal)))
	out := make(geom.Point, m)
	for k := 0; k < m; k++ {
		out[k] = math.Hypot(re[k], im[k]) * scale
	}
	return out, nil
}

// SlidingWindowDFT embeds a 1-D series by taking each length-w window's
// first m DFT magnitudes — sliding window plus dimensionality reduction in
// one pass, the full Faloutsos-style pre-processing pipeline.
func SlidingWindowDFT(series []float64, w, m int) (*core.Sequence, error) {
	if w < 1 || w > len(series) {
		return nil, fmt.Errorf("transform: window %d outside [1,%d]", w, len(series))
	}
	pts := make([]geom.Point, len(series)-w+1)
	for i := range pts {
		p, err := DFTFeatures(series[i:i+w], m)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return &core.Sequence{Points: pts}, nil
}

// Normalize affinely rescales a series into [0,1] (constant series map to
// all-0.5), matching the paper's normalized data space.
func Normalize(series []float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]float64, len(series))
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, v := range series {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}
