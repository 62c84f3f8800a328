package randgen

import (
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/value"
)

// TestDeterminism checks the generator contract: the same (seed, Config)
// reproduces every instance family byte for byte.
func TestDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, size := range []int{1, 3, 6} {
			cfg := Config{Size: size}
			a, b := New(seed, cfg), New(seed, cfg)
			ia, ib := a.ExprInstance(), b.ExprInstance()
			if ia.Expr.String() != ib.Expr.String() {
				t.Fatalf("seed %d size %d: expr differs:\n%s\n%s", seed, size, ia.Expr, ib.Expr)
			}
			for name, s := range ia.DB {
				if s.String() != ib.DB[name].String() {
					t.Fatalf("seed %d size %d: db relation %s differs", seed, size, name)
				}
			}
			ca, cb := a.CoreInstance(true), b.CoreInstance(true)
			if ca.Prog.String() != cb.Prog.String() {
				t.Fatalf("seed %d size %d: core program differs", seed, size)
			}
			for _, kind := range []DatalogKind{DlogPositive, DlogStratified, DlogFree} {
				pa, pb := a.Datalog(kind), b.Datalog(kind)
				if pa.String() != pb.String() {
					t.Fatalf("seed %d size %d kind %v: datalog program differs", seed, size, kind)
				}
			}
		}
	}
}

// hasMisfit reports whether e holds a literal with an element that is
// neither an integer nor a pair of integers: the mark of a root point
// select's deliberately ill-kinded operand, the only literals of that kind
// the generator emits.
func hasMisfit(e algebra.Expr) bool {
	switch ee := e.(type) {
	case algebra.Lit:
		for i := 0; i < ee.Set.Len(); i++ {
			switch v := ee.Set.At(i).(type) {
			case value.Int:
			case value.Tuple:
				if v.Len() != 2 {
					return true
				}
			default:
				return true
			}
		}
		return false
	case algebra.Union:
		return hasMisfit(ee.L) || hasMisfit(ee.R)
	case algebra.Diff:
		return hasMisfit(ee.L) || hasMisfit(ee.R)
	case algebra.Product:
		return hasMisfit(ee.L) || hasMisfit(ee.R)
	case algebra.Select:
		return hasMisfit(ee.Of)
	case algebra.Map:
		return hasMisfit(ee.Of)
	case algebra.IFP:
		return hasMisfit(ee.Body)
	default:
		return false
	}
}

// TestExprInstancesEvaluate checks that generated expressions are
// well-kinded: evaluation either succeeds or hits the work budget, but never
// fails with a kind error — unless a root point select holds a planted
// misfit, which happens often enough to matter and seldom enough to leave
// most instances evaluable.
func TestExprInstancesEvaluate(t *testing.T) {
	budget := algebra.Budget{MaxIFPIters: 500, MaxSetSize: 50_000}
	misfits, failed := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		g := New(seed, Config{Size: 3})
		inst := g.ExprInstance()
		planted := hasMisfit(inst.Expr)
		if planted {
			misfits++
		}
		if _, err := algebra.NewEvaluator(inst.DB, budget).Eval(inst.Expr); err != nil {
			if !planted {
				t.Fatalf("seed %d: eval failed: %v\nexpr: %s", seed, err, inst.Expr)
			}
			failed++
		}
	}
	if misfits < 6 || failed < 3 || failed > 30 {
		t.Errorf("of 300 instances %d hold a misfit and %d fail; want at least 6 and 3, and at most 30 failing", misfits, failed)
	}
}

// TestIFPExprInstancesHaveIFP checks the IFP family's defining property.
func TestIFPExprInstancesHaveIFP(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		inst := New(seed, Config{Size: 2}).IFPExprInstance()
		if !algebra.HasIFP(inst.Expr) {
			t.Fatalf("seed %d: instance has no IFP: %s", seed, inst.Expr)
		}
	}
}

// TestCoreInstancesValidate checks generated algebra= programs are
// structurally well formed, inline cleanly, and evaluate (or hit the
// budget) under both core semantics.
func TestCoreInstancesValidate(t *testing.T) {
	budget := algebra.Budget{MaxIFPIters: 500, MaxSetSize: 50_000}
	for seed := int64(0); seed < 200; seed++ {
		g := New(seed, Config{Size: 3})
		inst := g.CoreInstance(seed%2 == 0)
		if err := inst.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v\n%s", seed, err, inst.Prog)
		}
		if _, err := inst.Prog.Inline(); err != nil {
			t.Fatalf("seed %d: inline failed: %v\n%s", seed, err, inst.Prog)
		}
		if _, err := core.EvalValid(inst.Prog, inst.DB, budget); err != nil {
			t.Fatalf("seed %d: valid eval failed: %v\n%s", seed, err, inst.Prog)
		}
		if _, err := core.EvalInflationary(inst.Prog, inst.DB, budget); err != nil {
			t.Fatalf("seed %d: inflationary eval failed: %v\n%s", seed, err, inst.Prog)
		}
	}
}

// TestDatalogInstancesAreSafe checks every generated program passes the
// Definition 4.1 safety check, that DlogPositive output is negation-free,
// and that DlogStratified output stratifies.
func TestDatalogInstancesAreSafe(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := New(seed, Config{Size: 3})
		for _, kind := range []DatalogKind{DlogPositive, DlogStratified, DlogFree} {
			p := g.Datalog(kind)
			if err := datalog.CheckProgramSafe(p); err != nil {
				t.Fatalf("seed %d kind %v: unsafe program: %v\n%s", seed, kind, err, p)
			}
			if kind == DlogPositive {
				for _, r := range p.Rules {
					for _, l := range r.Body {
						if la, ok := l.(datalog.LitAtom); ok && la.Neg {
							t.Fatalf("seed %d: positive program contains negation:\n%s", seed, p)
						}
					}
				}
			}
			if kind == DlogStratified && !datalog.IsStratified(p) {
				t.Fatalf("seed %d: DlogStratified program does not stratify:\n%s", seed, p)
			}
		}
	}
}

// TestDatalogInstancesGround checks generated programs ground and evaluate
// within modest budgets — the differential oracles depend on instances being
// cheap enough to run through several pipelines each.
func TestDatalogInstancesGround(t *testing.T) {
	budget := ground.Budget{MaxAtoms: 100_000, MaxRules: 400_000}
	for seed := int64(0); seed < 100; seed++ {
		g := New(seed, Config{Size: 3})
		p := g.Datalog(DlogFree)
		gp, err := ground.Ground(p, budget)
		if err != nil {
			t.Fatalf("seed %d: grounding failed: %v\n%s", seed, err, p)
		}
		semantics.NewEngine(gp).Valid()
	}
}
