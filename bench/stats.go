package bench

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule; sorted must be ascending and non-empty.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median is Percentile(sorted copy of xs, 0.5); NaN when xs is empty.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// Mean is the arithmetic mean; NaN when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: with fewer, the "p99" of a run is
// the latency of two or three individual requests.
const tailMinBeyond = 10

// TailPercentile picks the tail quantile a sample of n supports: want
// when at least tailMinBeyond samples lie beyond it, otherwise the
// highest quantile that still has tailMinBeyond samples beyond it. A
// sample of fewer than 2×tailMinBeyond has no tail to speak of and gets
// the median.
func TailPercentile(n int, want float64) float64 {
	if n < 2*tailMinBeyond {
		return 0.5
	}
	if q := 1 - float64(tailMinBeyond)/float64(n); q < want {
		return q
	}
	return want
}

// Tail reports the tail of sorted by the TailPercentile rule and the
// quantile it actually used.
func Tail(sorted []float64, want float64) (value, q float64) {
	q = TailPercentile(len(sorted), want)
	return Percentile(sorted, q), q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msOf converts a latency sample to sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
