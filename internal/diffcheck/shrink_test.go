package diffcheck

import (
	"strings"
	"testing"

	"algrec/internal/datalog"
	"algrec/internal/randgen"
)

// findDiverging sweeps seeds until the oracle reports a divergence,
// returning the instance and its seed.
func findDiverging(t *testing.T, o *Oracle, maxSeed int64) *Instance {
	t.Helper()
	for seed := int64(0); seed < maxSeed; seed++ {
		in := Generate(o, randgen.New(seed, randgen.Config{Size: 3}))
		if _, ok := IsDivergence(in.Check()); ok {
			return in
		}
	}
	t.Fatalf("no divergence for oracle %q in %d seeds", o.Name, maxSeed)
	return nil
}

// TestShrinkPlantedFault is the end-to-end acceptance check of the
// harness: plant the delta-window fault, catch a divergence, and shrink the
// witness to at most 10 atoms while it keeps diverging.
func TestShrinkPlantedFault(t *testing.T) {
	defer InjectFault(FaultDropMax)()
	o, _ := ByName("expr-stream")
	in := findDiverging(t, o, 40)
	small := in.Shrink()
	if small.Size() > in.Size() {
		t.Fatalf("shrinking grew the instance: %d -> %d", in.Size(), small.Size())
	}
	if _, ok := IsDivergence(small.Check()); !ok {
		t.Fatalf("shrunk instance no longer diverges:\n%s", small.Render())
	}
	if small.Size() > 10 {
		t.Fatalf("shrunk witness still has %d atoms, want <= 10:\n%s", small.Size(), small.Render())
	}
}

// TestShrinkNonDiverging checks that a passing instance is returned as-is.
func TestShrinkNonDiverging(t *testing.T) {
	o, _ := ByName("expr-stream")
	in := Generate(o, randgen.New(3, randgen.Config{Size: 2}))
	if err := in.Check(); err != nil {
		t.Fatalf("instance unexpectedly diverges: %v", err)
	}
	if got := in.Shrink(); got != in {
		t.Fatal("Shrink rewrote a non-diverging instance")
	}
}

// TestShrinkDatalog drives the deductive shrinker with a synthetic oracle
// that "diverges" whenever the program still derives anything for p: the
// shrinker must reduce a whole generated program to a single-literal core
// while keeping every intermediate candidate safe.
func TestShrinkDatalog(t *testing.T) {
	synthetic := &Oracle{Name: "synthetic-p", Doc: "test oracle", Kind: KindDatalogFree,
		checkDatalog: func(p *datalog.Program) error {
			if err := datalog.CheckProgramSafe(p); err != nil {
				t.Fatalf("shrinker offered an unsafe candidate: %v\n%s", err, p)
			}
			for _, r := range p.Rules {
				if r.Head.Pred == "p" {
					return diverge("synthetic-p", "program still mentions p")
				}
			}
			return nil
		}}
	for seed := int64(0); seed < 20; seed++ {
		in := Generate(synthetic, randgen.New(seed, randgen.Config{Size: 3}))
		if _, ok := IsDivergence(in.Check()); !ok {
			continue // this seed derived nothing for p
		}
		small := in.Shrink()
		if _, ok := IsDivergence(small.Check()); !ok {
			t.Fatalf("seed %d: shrunk instance no longer diverges", seed)
		}
		if small.Size() > 2 {
			t.Errorf("seed %d: want a near-minimal program (size <= 2), got size %d:\n%s",
				seed, small.Size(), small.Render())
		}
		if !strings.Contains(small.Render(), "p") {
			t.Errorf("seed %d: shrunk program lost the diverging predicate:\n%s", seed, small.Render())
		}
		return
	}
	t.Fatal("no seed produced a program deriving p")
}

// TestShrinkExprCandidatesWellFormed checks the expression rewriter: every
// candidate of a generated instance has strictly smaller or equal size and
// renders without panicking.
func TestShrinkExprCandidatesWellFormed(t *testing.T) {
	o, _ := ByName("expr-stream")
	for seed := int64(0); seed < 10; seed++ {
		in := Generate(o, randgen.New(seed, randgen.Config{Size: 3}))
		for _, c := range in.candidates() {
			if c.Render() == "" {
				t.Fatalf("seed %d: empty candidate rendering", seed)
			}
		}
	}
}
