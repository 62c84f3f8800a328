package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"algrec/internal/algebra"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// chainDB returns a database with the n edges (i, i+1) of a length-n chain
// under the given relation name.
func chainDB(name string, n int) algebra.DB {
	elems := make([]value.Value, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	return algebra.DB{name: value.NewSet(elems...)}
}

// tcDef returns the equation name = e ∪ compose(name, e): transitive closure
// as a recursive definition.
func tcDef(name string) Def {
	p := algebra.FVar{Name: "p"}
	join := algebra.Select{
		Of:  algebra.Product{L: rel(name), R: rel("e")},
		Var: "p",
		Test: algebra.FCmp{Op: algebra.OpEq,
			L: algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 2},
			R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
	}
	body := algebra.Union{L: rel("e"), R: algebra.Map{Of: join, Var: "p",
		Out: algebra.FTuple{Elems: []algebra.FExpr{
			algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 1},
			algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2}}}}}
	return Def{Name: name, Body: body}
}

// randEquationProgram generates a three-definition program mixing recursion,
// negation (Diff with defined constants on the right), Flip annotations and
// IFP subexpressions.
func randEquationProgram(r *rand.Rand) *Program {
	defs := []string{"s0", "s1", "s2"}
	var mkExpr func(depth int) algebra.Expr
	mkExpr = func(depth int) algebra.Expr {
		if depth == 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return rel("base")
			case 1:
				return rel(defs[r.Intn(len(defs))])
			default:
				return algebra.Lit{Set: ints(int64(r.Intn(5)))}
			}
		}
		x := algebra.FVar{Name: "x"}
		switch r.Intn(6) {
		case 0:
			return algebra.Union{L: mkExpr(depth - 1), R: mkExpr(depth - 1)}
		case 1:
			// negation: a defined constant may land on the right
			return algebra.Diff{L: mkExpr(depth - 1), R: mkExpr(depth - 1)}
		case 2:
			return algebra.Select{Of: mkExpr(depth - 1), Var: "x",
				Test: algebra.FCmp{Op: algebra.OpLt, L: x, R: algebra.FConst{V: value.Int(int64(r.Intn(6)))}}}
		case 3:
			return algebra.Map{Of: mkExpr(depth - 1), Var: "x",
				Out: algebra.FArith{Op: algebra.OpMod,
					L: algebra.FArith{Op: algebra.OpPlus, L: x, R: algebra.FConst{V: value.Int(1)}},
					R: algebra.FConst{V: value.Int(7)}}}
		case 4:
			return algebra.Flip{E: mkExpr(depth - 1)}
		default:
			return algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: mkExpr(depth - 1)}}
		}
	}
	p := &Program{}
	for _, name := range defs {
		p.Defs = append(p.Defs, Def{Name: name, Body: mkExpr(3)})
	}
	return p
}

// TestPropertySemiNaiveValidEquivalence: the production operators (streamed
// pipelines, probed differences, semi-naive IFP rounds) compute the same
// valid interpretation as the reference's materialized operators and naive
// IFP rounds on random programs with negation.
func TestPropertySemiNaiveValidEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randEquationProgram(r)
		db := algebra.DB{"base": ints(1, 2, 3)}
		budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
		sRes, sErr := EvalValid(p, db, budget)
		nRes, nErr := Eval(algebra.NewReference, p, db, budget, false)
		if sErr != nil || nErr != nil {
			return true // budget blowups may strike the two engines at different rounds
		}
		if !sameSets(sRes.Lower, nRes.Lower) || !sameSets(sRes.Upper, nRes.Upper) {
			t.Logf("seed %d: valid interpretations differ\nproduction: %v / %v\nreference: %v / %v\nprogram:\n%s",
				seed, sRes.Lower, sRes.Upper, nRes.Lower, nRes.Upper, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySemiNaiveInflationaryEquivalence: same for the inflationary
// semantics.
func TestPropertySemiNaiveInflationaryEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randEquationProgram(r)
		db := algebra.DB{"base": ints(1, 2, 3)}
		budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
		s, sErr := EvalInflationary(p, db, budget)
		n, nErr := Eval(algebra.NewReference, p, db, budget, true)
		if sErr != nil || nErr != nil {
			return true
		}
		if !sameSets(s, n.Lower) {
			t.Logf("seed %d: inflationary results differ: %v vs %v\nprogram:\n%s", seed, s, n, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInflationaryStratificationCounterexample pins why EvalInflationary
// runs global rounds: under pos = neg = cur the equations interact through
// negation, and evaluating def-by-def to fixpoint changes results. With
// a = {1} − b and b = {1}, round 0 evaluates both against the empty state, so
// a receives 1 before b blocks it.
func TestInflationaryStratificationCounterexample(t *testing.T) {
	p := &Program{Defs: []Def{
		{Name: "a", Body: algebra.Diff{L: algebra.Lit{Set: ints(1)}, R: rel("b")}},
		{Name: "b", Body: algebra.Lit{Set: ints(1)}},
	}}
	for i, newEval := range []func(algebra.DB, algebra.Budget) *algebra.Evaluator{algebra.NewEvaluator, algebra.NewReference} {
		res, err := Eval(newEval, p, algebra.DB{}, algebra.Budget{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Lower; !value.Equal(got["a"], ints(1)) || !value.Equal(got["b"], ints(1)) {
			t.Errorf("reference=%v: got a=%v b=%v, want a={1} b={1}", i == 1, got["a"], got["b"])
		}
	}
}

// TestCoreEvalCounters pins the observability of the one Γ loop and the one
// Jacobi loop on a hand-computed program: transitive closure of a length-3
// chain plus one independent definition.
//
// Valid semantics: every Γ pass runs 4 rounds (tc grows 3, 2, 1, 0), each
// evaluating both definitions, and the alternation needs 4 Γ passes (empty →
// fixpoint → confirm, twice): 16 rounds, 32 evaluations.
//
// Inflationary semantics: global rounds, 4 of them (tc grows 3, 2, 1, 0),
// each evaluating both definitions.
func TestCoreEvalCounters(t *testing.T) {
	p := &Program{Defs: []Def{
		tcDef("tc"),
		{Name: "d", Body: algebra.Lit{Set: ints(99)}},
	}}
	db := chainDB("e", 3)

	var events []obsv.CoreEvalStats
	obsv.SetDefault(obsv.Func(func(e obsv.Event) {
		if s, ok := e.(obsv.CoreEvalStats); ok {
			events = append(events, s)
		}
	}))
	defer obsv.SetDefault(nil)

	if _, err := EvalValid(p, db, algebra.Budget{}); err != nil {
		t.Fatal(err)
	}
	want := []obsv.CoreEvalStats{{Semantics: "valid", Defs: 2, Gammas: 4, Rounds: 16, Evals: 32}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("valid events = %+v, want %+v", events, want)
	}

	events = nil
	got, err := EvalInflationary(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got["tc"].Len() != 6 || !value.Equal(got["d"], ints(99)) {
		t.Fatalf("inflationary result wrong: tc=%v d=%v", got["tc"], got["d"])
	}
	want = []obsv.CoreEvalStats{{Semantics: "inflationary", Defs: 2, Gammas: 1, Rounds: 4, Evals: 8}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("inflationary events = %+v, want %+v", events, want)
	}
}

// TestFlippedSubtrahendRegression pins a program on which Γ's update order is
// visible (property-test seed 4203084367423753265): s0 subtracts an IFP over
// s2 inside a Flip, so the s2 read takes the evolving lower bound (even
// environment parity) but is subtracted (anti-monotone). The Gauss-Seidel
// rounds evaluate s0 before s2 has grown and the inflationary accumulator
// keeps the transient derivation {1, 2}; evaluating s2 first would derive ∅.
func TestFlippedSubtrahendRegression(t *testing.T) {
	x := algebra.FVar{Name: "x"}
	p := &Program{Defs: []Def{
		{Name: "s0", Body: algebra.Flip{E: algebra.Diff{
			L: algebra.Select{Of: rel("s1"), Var: "x",
				Test: algebra.FCmp{Op: algebra.OpLt, L: x, R: algebra.FConst{V: value.Int(3)}}},
			R: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: rel("s2")}},
		}}},
		{Name: "s1", Body: algebra.Union{L: algebra.Lit{Set: ints(3)}, R: rel("s2")}},
		{Name: "s2", Body: algebra.Flip{E: algebra.Union{
			L: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: algebra.Lit{Set: ints(1)}}},
			R: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: rel("base")}},
		}}},
	}}
	db := algebra.DB{"base": ints(1, 2, 3)}
	budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
	sRes, err := EvalValid(p, db, budget)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := Eval(algebra.NewReference, p, db, budget, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(sRes.Lower, nRes.Lower) || !sameSets(sRes.Upper, nRes.Upper) {
		t.Errorf("engines disagree:\nproduction: %v / %v\nreference: %v / %v",
			sRes.Lower, sRes.Upper, nRes.Lower, nRes.Upper)
	}
	if !value.Equal(sRes.Lower["s0"], ints(1, 2)) {
		t.Errorf("s0 = %v, want {1, 2} (the Gauss-Seidel order's answer)", sRes.Lower["s0"])
	}
}
