package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the fewest samples a p95 is reported from: a 95th
// percentile needs ten samples beyond it to be more than one slow request.
const minTailSamples = 200

// quantile returns the q-quantile (0..1) of samples by linear interpolation
// between order statistics; the slice is sorted in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	return samples[lo] + (pos-float64(lo))*(samples[lo+1]-samples[lo])
}

// median is the 0.5-quantile.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// p95 returns the 95th percentile, and refuses — ok false — to name one from
// fewer than minTailSamples samples.
func p95(samples []float64) (v float64, ok bool) {
	if len(samples) < minTailSamples {
		return 0, false
	}
	return quantile(samples, 0.95), true
}

// spread is the distance between the first and third quartile as a share of
// the median, computed as Python's statistics.quantiles(values, n=4) does
// (exclusive method), which is how the benchmark's steadiness is judged. It
// needs four values; ok is false with fewer.
func spread(values []float64) (share float64, ok bool) {
	n := len(values)
	if n < 4 {
		return 0, false
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(i int) float64 { // i-th quartile, exclusive method
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - 4*j
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	med := median(v)
	if med == 0 {
		return 0, false
	}
	return (at(3) - at(1)) / math.Abs(med), true
}

// worseBy returns by what share of old the new value is worse, given the
// metric's direction; negative means better.
func worseBy(old, new float64, higherIsBetter bool) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (new - old) / math.Abs(old)
	if higherIsBetter {
		return -d
	}
	return d
}

// verdict of comparing one (metric, workload) pair across two sets of runs.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a bound to two sets of values of one metric on one workload:
// unresolved when either set's own spread exceeds the bound (the sets cannot
// tell a change of that size from noise), regressed when the new median is
// worse than the old by more than the bound, ok otherwise. A set of fewer
// than four runs has no measured spread, and single runs of the same code
// differ by up to 30% on a shared machine, so a worsening beyond the bound
// between such sets is unresolved too, not regressed. A bound of 0 (the
// failed share) is exempt: any worsening regresses.
func judge(old, new []float64, bound float64, higherIsBetter bool) (verdict, string) {
	mo, mn := median(append([]float64(nil), old...)), median(append([]float64(nil), new...))
	by := worseBy(mo, mn, higherIsBetter)
	note := fmt.Sprintf("%.6g -> %.6g (%+.1f%%, bound %.0f%%)", mo, mn, 100*by, 100*bound)
	if bound == 0 {
		if by > 0 {
			return verdictRegressed, note
		}
		return verdictOK, note
	}
	measured := true
	for _, set := range [][]float64{old, new} {
		s, ok := spread(set)
		if ok && s > bound {
			return verdictUnresolved, note + fmt.Sprintf(", spread %.1f%%", 100*s)
		}
		measured = measured && ok
	}
	switch {
	case by <= bound:
		return verdictOK, note
	case !measured:
		return verdictUnresolved, note + ", spread unknown: fewer than 4 runs in a set"
	default:
		return verdictRegressed, note
	}
}
