package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a p90 over fewer than 100 samples rests on fewer than ten
// observations and moves with every outlier.
const minBeyond = 10

// percentile is one latency percentile with the sample count it rests on.
type percentile struct {
	Value float64
	N     int
}

// pct returns the p-th percentile (0 < p < 100) of xs by the nearest-rank
// rule. It refuses when fewer than minBeyond samples lie above that rank.
func pct(xs []float64, p float64) (percentile, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return percentile{}, fmt.Errorf("p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return percentile{}, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile{Value: s[rank-1], N: n}, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts attempted and failed operations. A failure is a failed
// variant or job, a bound violation, a truncated measurement, a refused
// submission or a warm result that differs from its cold original; each
// is recorded with its reason so a failing run says what broke.
type tally struct {
	Attempted int
	Failed    int
	Reasons   []string
}

// ok records one operation that passed every check.
func (t *tally) ok() { t.Attempted++ }

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.Attempted++
	t.Failed++
	if len(t.Reasons) < 20 {
		t.Reasons = append(t.Reasons, fmt.Sprintf(format, args...))
	}
}

// violation records a check failure that is not an operation of its own
// (a digest that changed between passes, a workload missing its purpose):
// it fails the run without inflating the attempt count.
func (t *tally) violation(format string, args ...any) {
	t.Failed++
	if len(t.Reasons) < 20 {
		t.Reasons = append(t.Reasons, fmt.Sprintf(format, args...))
	}
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, r := range o.Reasons {
		if len(t.Reasons) < 20 {
			t.Reasons = append(t.Reasons, r)
		}
	}
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
