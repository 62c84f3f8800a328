package diffcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algrec/internal/datalog"
	"algrec/internal/query"
	"algrec/internal/randgen"
)

// TestOracleRegistry checks the matrix's bookkeeping: unique names, docs,
// exactly one check function per oracle, and ByName round-trips.
func TestOracleRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range Oracles {
		if o.Name == "" || o.Doc == "" {
			t.Errorf("oracle %+v: missing name or doc", o)
		}
		if seen[o.Name] {
			t.Errorf("duplicate oracle name %q", o.Name)
		}
		seen[o.Name] = true
		n := 0
		if o.checkExpr != nil {
			n++
		}
		if o.checkCore != nil {
			n++
		}
		if o.checkDatalog != nil {
			n++
		}
		if o.checkDlogIVM != nil {
			n++
		}
		if o.checkDlogDB != nil {
			n++
		}
		if n != 1 {
			t.Errorf("oracle %q: %d check functions, want exactly 1", o.Name, n)
		}
		got, ok := ByName(o.Name)
		if !ok || got != o {
			t.Errorf("ByName(%q) did not return the registered oracle", o.Name)
		}
	}
	if _, ok := ByName("no-such-oracle"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

// TestGenerateMatchesKind checks Generate populates exactly the fields the
// oracle's kind calls for.
func TestGenerateMatchesKind(t *testing.T) {
	for _, o := range Oracles {
		in := Generate(o, randgen.New(7, randgen.Config{Size: 2}))
		switch o.Kind {
		case KindExpr, KindIFPExpr:
			if in.Expr == nil || in.DB == nil || in.Core != nil || in.Dlog != nil {
				t.Errorf("oracle %q: wrong fields for an expression instance", o.Name)
			}
		case KindCore, KindCoreNoFlip:
			if in.Core == nil || in.DB == nil || in.Expr != nil || in.Dlog != nil {
				t.Errorf("oracle %q: wrong fields for a core instance", o.Name)
			}
		case KindDatalogIVM:
			if in.Dlog == nil || len(in.Sched) == 0 || in.Expr != nil || in.Core != nil {
				t.Errorf("oracle %q: wrong fields for an ivm instance", o.Name)
			}
		case KindDatalogStored, KindDatalogStoredFree:
			if in.Dlog == nil || in.DB == nil || in.Expr != nil || in.Core != nil || in.Sched != nil {
				t.Errorf("oracle %q: wrong fields for a stored instance", o.Name)
			}
		default:
			if in.Dlog == nil || in.Expr != nil || in.Core != nil || in.Sched != nil {
				t.Errorf("oracle %q: wrong fields for a deductive instance", o.Name)
			}
		}
		if in.Size() <= 0 {
			t.Errorf("oracle %q: non-positive size %d", o.Name, in.Size())
		}
		if in.Render() == "" {
			t.Errorf("oracle %q: empty rendering", o.Name)
		}
	}
}

// TestOraclesCleanSweep is the corpus the fuzz targets grow from: every
// oracle over a spread of seeds and sizes, expecting agreement everywhere.
// A failure here is a real engine (or theorem-implementation) bug — the
// rendered witness is the repro.
func TestOraclesCleanSweep(t *testing.T) {
	for _, o := range Oracles {
		o := o
		t.Run(o.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 60; seed++ {
				g := randgen.New(seed, randgen.Config{Size: 1 + int(seed%3)})
				in := Generate(o, g)
				if err := in.Check(); err != nil {
					t.Fatalf("seed %d: %v\ninstance:\n%s", seed, err, in.Render())
				}
			}
		})
	}
}

// TestPlantedFaultIsCaught validates the harness end to end: with
// FaultDropMax planted, the expr-stream oracle must report divergences
// on a healthy engine pair, and the Divergence must carry the oracle name.
func TestPlantedFaultIsCaught(t *testing.T) {
	defer InjectFault(FaultDropMax)()
	o, _ := ByName("expr-stream")
	caught := 0
	for seed := int64(0); seed < 40; seed++ {
		in := Generate(o, randgen.New(seed, randgen.Config{Size: 2}))
		err := in.Check()
		if err == nil {
			continue
		}
		d, ok := IsDivergence(err)
		if !ok {
			t.Fatalf("seed %d: non-divergence error %v", seed, err)
		}
		if d.Oracle != "expr-stream" {
			t.Fatalf("divergence names oracle %q", d.Oracle)
		}
		if !strings.Contains(d.Detail, "left") {
			t.Fatalf("divergence detail does not show both sides: %s", d.Detail)
		}
		caught++
	}
	if caught == 0 {
		t.Fatal("planted FaultDropMax was never caught in 40 seeds; the oracle is blind")
	}
}

// TestFaultRoundTrip checks the fault switch plumbing used by cmd/fuzzdiff.
func TestFaultRoundTrip(t *testing.T) {
	for _, f := range []Fault{FaultNone, FaultDropMax} {
		got, err := ParseFault(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFault(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFault("bogus"); err == nil {
		t.Error("ParseFault accepted an unknown fault")
	}
	restore := InjectFault(FaultDropMax)
	if CurrentFault() != FaultDropMax {
		t.Error("InjectFault did not take effect")
	}
	restore()
	if CurrentFault() != FaultNone {
		t.Error("restore did not reset the fault")
	}
}

// TestThreeValuedCorpusSeeds: the dlog-relational-free corpus entries named
// after shapes of negation through recursion still generate them — an
// unstratified program whose model has undefined facts, evaluated by
// alternation — so a generator change that re-rolls them is seen here, not
// silently.
func TestThreeValuedCorpusSeeds(t *testing.T) {
	o, _ := ByName("dlog-relational-free")
	for name, c := range map[string]struct {
		seed int64
		size byte
	}{
		"win-on-an-odd-cycle":                          {1801, 3},
		"win-with-a-draw-tail":                         {187, 1},
		"p-not-p-beside-program-facts":                 {16, 1},
		"negation-through-positive-recursion":          {75, 1},
		"three-valued-unit-read-negatively-from-above": {9, 2},
		"stored-and-derived-under-one-name":            {101, 3},
		"empty-database":                               {386, 0},
	} {
		entry, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDlogRelationalFree", name))
		if want := fmt.Sprintf("go test fuzz v1\nint64(%d)\nbyte(%d)\n", c.seed, c.size); err != nil || string(entry) != want {
			t.Errorf("%s: corpus entry %q (%v), want %q", name, entry, err, want)
		}
		in := Generate(o, randgen.New(c.seed, randgen.Config{Size: 1 + int(c.size)%4}))
		plan := &query.Plan{Language: query.LangDatalog, Semantics: query.SemValid, Source: in.Dlog.String(), Program: in.Dlog}
		out, err := query.Execute(plan, in.DB, query.Options{Budget: ExprBudget, Ground: GroundBudget})
		if err != nil || datalog.IsStratified(in.Dlog) || out.WellDefined {
			t.Errorf("%s: no longer three-valued (%v):\n%s", name, err, in.Render())
		}
	}
}
