package main

import (
	"fmt"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile for it to
// count as the tail: the highest percentile with at least this many
// samples above it is the reported tail.
const tailSamples = 10

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest order statistic of a sample with at least
// tailSamples samples beyond it.
type tail struct {
	// OK is false when the sample is too small to leave tailSamples
	// samples beyond a value above its median.
	OK bool
	// Pct is the percentile the value sits at: the share of samples at or
	// below it, in percent.
	Pct   float64
	Value float64
	N     int
}

// tailOf picks the tail of xs: the value at sorted index n-1-tailSamples,
// so exactly tailSamples samples lie beyond it. With n <= 2*tailSamples
// that value sits at or below the median, which is no tail, so there is
// none.
func tailOf(xs []float64) tail {
	n := len(xs)
	k := n - 1 - tailSamples
	if n <= 2*tailSamples {
		return tail{N: n}
	}
	s := sortedCopy(xs)
	return tail{OK: true, Pct: 100 * float64(k+1) / float64(n), Value: s[k], N: n}
}

// String renders the tail with its percentile and sample count.
func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("none (n=%d, needs n>%d)", t.N, 2*tailSamples)
	}
	pct := fmt.Sprintf("%.2f", t.Pct)
	if t.Pct < 100 && pct == "100.00" {
		pct = fmt.Sprintf("%.6f", t.Pct) // a tail of a very large sample
	}
	return fmt.Sprintf("p%s of n=%d", pct, t.N)
}

// reported is the tail value the JSON line carries: the tail when there
// is one, else the sample maximum (the human table says which).
func (t tail) reported(xs []float64) float64 {
	if t.OK {
		return t.Value
	}
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
