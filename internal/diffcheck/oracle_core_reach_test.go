package diffcheck

import (
	"testing"

	"algrec/internal/obsv"
	"algrec/internal/randgen"
)

// TestCoreValidReach: core-valid's served side reaches both engines — of 2 000
// KindCore instances at least 200 run on the relational kernel and at least
// 200 on internal/core — so the oracle checks the kernel's alternation as
// well as core's production operators.
func TestCoreValidReach(t *testing.T) {
	o, _ := ByName("core-valid")
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	defer obsv.SetDefault(prev)
	for seed := int64(0); seed < 2000; seed++ {
		in := Generate(o, randgen.New(seed, randgen.Config{Size: 1 + int(seed%4)}))
		if err := in.Check(); err != nil {
			t.Fatalf("seed %d: %v\ninstance:\n%s", seed, err, in.Render())
		}
	}
	snap := stats.Snapshot()
	t.Logf("kernel %d, core %d (%v)", snap["algebra.engine.kernel"], snap["algebra.engine.core"], snap)
	if snap["algebra.engine.kernel"] < 200 || snap["algebra.engine.core"] < 200 {
		t.Errorf("served engines: kernel %d, core %d of 2 000; want at least 200 each", snap["algebra.engine.kernel"], snap["algebra.engine.core"])
	}
}
