package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
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

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMin is the number of samples that must lie beyond a reported tail
// percentile, so that the tail rests on more than one or two outliers.
const tailMin = 10

// tail is the highest percentile of a sample set that still has at
// least tailMin samples beyond it.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
	Beyond     int
}

// tailOf picks, in ascending order, the sample with exactly tailMin
// samples above it: the (n-tailMin)-th of n, percentile
// 100*(n-tailMin)/n. Below tailMin+1 samples no percentile qualifies and
// the median is reported instead, labelled p50.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n <= tailMin {
		return tail{Value: median(xs), Percentile: 50, Samples: n, Beyond: n / 2}
	}
	s := sortedCopy(xs)
	i := n - tailMin - 1
	return tail{
		Value:      s[i],
		Percentile: math.Floor(1000*float64(i+1)/float64(n)) / 10,
		Samples:    n,
		Beyond:     tailMin,
	}
}

// tally counts operations attempted and failed. A failure is any wrong
// output, job error, HTTP error or exact-count mismatch.
type tally struct {
	Attempted, Failed int
}

// add records one attempted operation and whether it succeeded.
func (t *tally) add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// frac is the failed share of attempted operations (0 when none ran).
func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
