package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified. An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relIQR is the interquartile range as a share of the median — the
// in-run spread printed beside every timing.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// runSpread is the spread the benchmark's driver computes over the runs
// of a set: the distance between the first and the third quartile, as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method, wider than relIQR on small samples), as a share of the median.
// Fewer than two values have no spread.
func runSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / math.Abs(m)
}

// normalizeEpochs divides each epoch's rate by the mean of the two host
// indexes that bracket it (index has one more entry than rates): what the
// epoch would have delivered on the reference host, had this host run the
// frozen reference kernels at exactly their reference speeds meanwhile.
func normalizeEpochs(rates, index []float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r / ((index[i] + index[i+1]) / 2)
	}
	return out
}
