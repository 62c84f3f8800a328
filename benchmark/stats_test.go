package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of 4 = %v", got)
	}
	if got := quantile(seq(101), 0.95); !near(got, 96) {
		t.Errorf("p95 of 1..101 = %v", got)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("p95 of one sample = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestP95RefusesFewSamples(t *testing.T) {
	if _, ok := p95(seq(minTailSamples - 1)); ok {
		t.Errorf("p95 accepted %d samples", minTailSamples-1)
	}
	v, ok := p95(seq(minTailSamples))
	if !ok || !near(v, 0.95*float64(minTailSamples-1)+1) {
		t.Errorf("p95 of 1..%d = %v, %v", minTailSamples, v, ok)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4): for
// 1..10 Python gives [2.75, 5.5, 8.25], for [1, 2, 4, 8] it gives
// [1.25, 3.0, 7.0].
func TestSpreadMatchesPython(t *testing.T) {
	if s, ok := spread(seq(10)); !ok || !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v, %v", s, ok)
	}
	if s, ok := spread([]float64{8, 1, 4, 2}); !ok || !near(s, (7.0-1.25)/3.0) {
		t.Errorf("spread(1,2,4,8) = %v, %v", s, ok)
	}
	if _, ok := spread(seq(3)); ok {
		t.Error("spread accepted three values")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 112, false); !near(got, 0.12) {
		t.Errorf("latency 100 -> 112: %v", got)
	}
	if got := worseBy(100, 88, true); !near(got, 0.12) {
		t.Errorf("throughput 100 -> 88: %v", got)
	}
	if got := worseBy(100, 90, false); !near(got, -0.10) {
		t.Errorf("latency 100 -> 90: %v", got)
	}
	if got := worseBy(0, 0, false); got != 0 {
		t.Errorf("0 -> 0: %v", got)
	}
	if got := worseBy(0, 0.01, false); !math.IsInf(got, 1) {
		t.Errorf("failed_share 0 -> 0.01: %v", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre, centre * 0.995, centre * 1.005}
	}
	noisy := []float64{80, 100, 120, 90, 110, 130}
	cases := []struct {
		name     string
		old, new []float64
		bound    float64
		higher   bool
		want     verdict
	}{
		{"same", steady(100), steady(100), 0.10, false, verdictOK},
		{"within bound", steady(100), steady(108), 0.10, false, verdictOK},
		{"latency up", steady(100), steady(115), 0.10, false, verdictRegressed},
		{"latency down", steady(100), steady(50), 0.10, false, verdictOK},
		{"throughput down", steady(100), steady(85), 0.10, true, verdictRegressed},
		{"throughput up", steady(100), steady(140), 0.10, true, verdictOK},
		{"old set noisy", noisy, steady(150), 0.10, false, verdictUnresolved},
		{"new set noisy", steady(100), noisy, 0.10, false, verdictUnresolved},
		{"single runs within the bound", []float64{100}, []float64{108}, 0.10, false, verdictOK},
		{"single runs beyond it have no spread to trust", []float64{100}, []float64{120}, 0.10, false, verdictUnresolved},
		{"any increase of a zero-bound metric", []float64{0}, []float64{0.01}, 0, false, verdictRegressed},
		{"zero stays zero", []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}, 0, false, verdictOK},
	}
	for _, c := range cases {
		if got, note := judge(c.old, c.new, c.bound, c.higher); got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, note, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if self, clamped := selfTime(10, 3, 2.5); clamped || !near(self, 4.5) {
		t.Errorf("10 - 3 - 2.5 = %v, clamped %v", self, clamped)
	}
	if self, clamped := selfTime(10); clamped || self != 10 {
		t.Errorf("no children: %v, clamped %v", self, clamped)
	}
	if self, clamped := selfTime(5, 4, 3); !clamped || self != 0 {
		t.Errorf("children beyond the parent: %v, clamped %v", self, clamped)
	}
}

func TestCompareRows(t *testing.T) {
	set := func(p50, thr float64) *results {
		r := &results{}
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.002*float64(i)
			r.Runs = append(r.Runs, &runRecord{Workload: "dlog-read", Metrics: map[string]reading{
				"latency_class_p50_ms": {Value: p50 * jitter, Unit: "ms"},
				"throughput_ops_s":     {Value: thr * jitter, Unit: "1/s"},
				"latency_p95_ms":       {Unit: "ms", Note: "refused"},
			}})
		}
		return r
	}
	b := testBench(t)
	rows, regressed := compareRows(b, set(100, 10), set(103, 9.8))
	if regressed != 0 || len(rows) != 2 {
		t.Errorf("same code: %d regressed, rows %q", regressed, rows)
	}
	rows, regressed = compareRows(b, set(100, 10), set(140, 7))
	if regressed != 2 {
		t.Errorf("40%% slower: %d regressed, rows %q", regressed, rows)
	}
}

// TestYardstick: baskets run beside whatever else the process does, each
// speed call reads the interval since the one before, and halt returns.
func TestYardstick(t *testing.T) {
	y := startYardstick()
	time.Sleep(5 * yardstickEvery)
	if s := y.speed(); s < 0.05 || s > 20 {
		t.Errorf("machine speed %v of the reference: the basket takes %v here?", s, time.Duration(float64(referenceBasket)/s))
	}
	y.halt()
	y.speed() // whatever ran between the reading above and the halt
	if s := y.speed(); s != 1 {
		t.Errorf("speed over an interval without a basket = %v, want 1", s)
	}
	if d := basket(chase()); d <= 0 {
		t.Errorf("a basket took %v of CPU time", d)
	}
}
