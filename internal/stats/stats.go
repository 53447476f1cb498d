// Package stats provides small numeric helpers shared across the
// RobustHD reproduction: seeded random number generation, softmax,
// summary statistics, and classification metrics.
//
// Every randomized component in the repository draws from an RNG built
// by NewRNG so that experiments are deterministic end to end.
package stats

import (
	"math"
	"math/rand/v2"
	"sort"
)

// NewRNG returns a deterministic PCG-backed random source for the given
// seed. Two calls with the same seed produce identical streams.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Softmax writes the softmax of x into a new slice. It is numerically
// stable (subtracts the maximum before exponentiation). An empty input
// yields an empty output.
func Softmax(x []float64) []float64 {
	out := make([]float64, len(x))
	SoftmaxInto(out, x)
	return out
}

// SoftmaxInto computes the softmax of x into dst, which must have the
// same length as x. It panics if the lengths differ.
func SoftmaxInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("stats: SoftmaxInto length mismatch")
	}
	if len(x) == 0 {
		return
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// ArgMax returns the index of the largest element of x, or -1 if x is
// empty. Ties resolve to the lowest index.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// StdDev returns the sample standard deviation of x (n-1 denominator),
// or 0 when x has fewer than two elements.
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(x)-1))
}

// SEM returns the standard error of the mean, StdDev(x)/sqrt(n), or 0
// when x has fewer than two elements.
func SEM(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	return StdDev(x) / math.Sqrt(float64(len(x)))
}

// CohensD returns Cohen's d for two independent samples: the
// difference of their means, Mean(a) − Mean(b), over the pooled
// sample standard deviation
// sqrt(((na−1)·sa² + (nb−1)·sb²)/(na+nb−2)). When the pooled deviation
// is 0 it returns 0 for equal means and ±Inf otherwise. It returns NaN
// when a sample is empty or the two hold fewer than three values
// together, where no pooled deviation exists.
func CohensD(a, b []float64) float64 {
	na, nb := len(a), len(b)
	if na == 0 || nb == 0 || na+nb < 3 {
		return math.NaN()
	}
	sa, sb := StdDev(a), StdDev(b)
	pooled := math.Sqrt((float64(na-1)*sa*sa + float64(nb-1)*sb*sb) / float64(na+nb-2))
	diff := Mean(a) - Mean(b)
	if pooled == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, diff)))
	}
	return diff / pooled
}

// Median returns the median of x, or 0 for an empty slice. The input is
// not modified.
func Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Clamp limits v to the inclusive range [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("stats: Clamp with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Accuracy returns the fraction of positions where pred equals label.
// It panics if the slices have different lengths and returns 0 for
// empty input.
func Accuracy(pred, label []int) float64 {
	if len(pred) != len(label) {
		panic("stats: Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == label[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// ConfusionMatrix tallies predictions against labels for a k-class
// problem. Entry [i][j] counts samples with true class i predicted as
// class j. Out-of-range classes are ignored.
func ConfusionMatrix(pred, label []int, k int) [][]int {
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	for i := range pred {
		if i >= len(label) {
			break
		}
		t, p := label[i], pred[i]
		if t >= 0 && t < k && p >= 0 && p < k {
			m[t][p]++
		}
	}
	return m
}

// MacroF1 computes the macro-averaged F1 score from a confusion matrix.
// Classes with no support and no predictions contribute an F1 of 0.
func MacroF1(cm [][]int) float64 {
	k := len(cm)
	if k == 0 {
		return 0
	}
	var total float64
	for c := 0; c < k; c++ {
		var tp, fp, fn int
		tp = cm[c][c]
		for j := 0; j < k; j++ {
			if j != c {
				fn += cm[c][j]
				fp += cm[j][c]
			}
		}
		if tp == 0 {
			continue
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(tp+fn)
		total += 2 * prec * rec / (prec + rec)
	}
	return total / float64(k)
}

// QualityLoss returns the accuracy drop (clean - faulty) expressed in
// percentage points, floored at zero. The paper reports all robustness
// results in this form.
func QualityLoss(clean, faulty float64) float64 {
	loss := (clean - faulty) * 100
	if loss < 0 {
		return 0
	}
	return loss
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
