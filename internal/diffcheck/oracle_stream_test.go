package diffcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algrec/internal/obsv"
	"algrec/internal/randgen"
)

// TestStreamOracleSweep is the production ≡ reference property test: a
// deeper seed sweep than TestOraclesCleanSweep over the two stream oracles,
// at the generator sizes where randgen's joinPipeline shapes (multi-leaf
// products with cross-leaf keys and pushable conjuncts) appear often. Any
// divergence is a planner, executor or delta-round bug — pruning that dropped
// a row the complete test accepts, a key encoding that separated equal
// values, or a delta that lost a round's contribution.
func TestStreamOracleSweep(t *testing.T) {
	for _, name := range []string{"expr-stream", "dlog-stream"} {
		o, ok := ByName(name)
		if !ok {
			t.Fatalf("oracle %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 150; seed++ {
				g := randgen.New(seed, randgen.Config{Size: 1 + int(seed%4)})
				in := Generate(o, g)
				if err := in.Check(); err != nil {
					t.Fatalf("seed %d: %v\ninstance:\n%s", seed, err, in.Render())
				}
			}
		})
	}
}

// counted runs f under a counting collector and returns the counters. The
// collector is process-wide: callers are top-level, sequential tests.
func counted(f func()) obsv.Snapshot {
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	defer obsv.SetDefault(prev)
	f()
	return stats.Snapshot()
}

// TestGeneratorReachesKernel: expr-stream's served side only pins the
// relational kernel if the generator draws flat joins, and the value
// evaluator's semi-naive fixpoint if it draws delta-distributive closures the
// kernel does not take; of the first 2 000 instances at the sweep sizes, at
// least a tenth must reach each. The reference side iterates naively, so
// every ifp.seminaive call counted here is the served side's.
func TestGeneratorReachesKernel(t *testing.T) {
	o, _ := ByName("expr-stream")
	kernel, seminaive := 0, 0
	for seed := int64(0); seed < 2000; seed++ {
		in := Generate(o, randgen.New(seed, randgen.Config{Size: 1 + int(seed%4)}))
		var err error
		snap := counted(func() { err = in.Check() })
		if snap["algebra.engine.kernel"] > 0 {
			kernel++
		}
		if snap["ifp.seminaive.calls"] > 0 {
			seminaive++
		}
		if err != nil {
			t.Fatalf("seed %d: %v\ninstance:\n%s", seed, err, in.Render())
		}
	}
	t.Logf("of 2000 instances, %d run on the kernel and %d run semi-naive IFP rounds", kernel, seminaive)
	if kernel < 200 || seminaive < 200 {
		t.Errorf("of 2000 instances, only %d run on the kernel and %d run semi-naive IFP rounds", kernel, seminaive)
	}
}

// TestKernelCorpusSeeds pins the named FuzzExprStream corpus entries to the
// shapes they are named for: each draws its flat join and is answered by the
// engine it is meant to reach.
func TestKernelCorpusSeeds(t *testing.T) {
	o, _ := ByName("expr-stream")
	for name, c := range map[string]struct {
		seed   int64
		size   byte
		mark   string // in the expression
		engine string
	}{
		"two-way-equijoin":              {73, 2, `map(select(product(f, f), \p -> p.1.2 = p.2.1)`, "kernel"},
		"triangle-nested-shape":         {38, 2, `p.2.2 = p.1.1.1`, "kernel"},
		"distributive-closure":          {2, 2, `ifp(s, union(f, map(select(product(s, e)`, "kernel"},
		"union-of-joins":                {17, 2, `union(map(select(product(f, f)`, "kernel"},
		"heterogeneous-leaf-falls-back": {57, 2, `map(select(product(e, product(`, "value"},
		"set-valued-join-key":           {321, 1, `p.2.1.2 = p.2.2.1`, "kernel"},
	} {
		entry, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzExprStream", name))
		if want := fmt.Sprintf("go test fuzz v1\nint64(%d)\nbyte(%d)\n", c.seed, c.size); err != nil || string(entry) != want {
			t.Errorf("%s: corpus entry %q (%v), want %q", name, entry, err, want)
		}
		in := Generate(o, randgen.New(c.seed, randgen.Config{Size: 1 + int(c.size)%4}))
		snap := counted(func() { err = in.Check() })
		if err != nil || snap["algebra.engine."+c.engine] != 1 || !strings.Contains(in.Expr.String(), c.mark) {
			t.Errorf("%s: %v, counters %v, instance:\n%s", name, err, snap, in.Render())
		}
	}
}
