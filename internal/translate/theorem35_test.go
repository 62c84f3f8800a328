package translate

import (
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/value"
)

// TestTheorem35TC: eliminating the IFP from the transitive-closure query
// yields an IFP-free algebra= program with the same (two-valued) answer.
func TestTheorem35TC(t *testing.T) {
	db := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})}
	want, err := algebra.Eval(tcIFP(), db)
	if err != nil {
		t.Fatal(err)
	}
	cp, cdb, result, err := EliminateIFP(tcIFP(), db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EvalValid(cp, cdb, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsTotal(result) {
		t.Fatalf("eliminated program not well defined: undef %v", res.UndefElems(result))
	}
	if !value.Equal(res.Set(result), want) {
		t.Errorf("eliminated TC = %v, want %v", res.Set(result), want)
	}
}

// TestTheorem35NonMonotone is the crux: IFP_{{a}−x} = {a} is a
// *non-monotone* fixed point, the expression whose naive recursive equation
// S = {a} − S is undefined. Theorem 3.5's pipeline still expresses it in
// algebra= — with a two-valued valid model — because the step index replays
// the inflationary computation.
func TestTheorem35NonMonotone(t *testing.T) {
	a := value.String("a")
	q := algebra.IFP{Var: "x", Body: algebra.Diff{L: algebra.Singleton(a), R: algebra.Rel{Name: "x"}}}
	cp, cdb, result, err := EliminateIFP(q, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EvalValid(cp, cdb, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsTotal(result) {
		t.Fatalf("eliminated {a}−x not well defined: undef %v", res.UndefElems(result))
	}
	if !value.Equal(res.Set(result), value.NewSet(a)) {
		t.Errorf("eliminated IFP_{{a}-x} = %v, want {a}", res.Set(result))
	}
	// Contrast: the naive recursive equation is undefined (Section 3.2).
	naive := &core.Program{Defs: []core.Def{{Name: "s",
		Body: algebra.Diff{L: algebra.Singleton(a), R: algebra.Rel{Name: "s"}}}}}
	nres, err := core.EvalValid(naive, algebra.DB{}, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if nres.IsTotal("s") {
		t.Error("naive equation S = {a} − S should be undefined; the theorem needs the full pipeline")
	}
}

// TestTheorem35Nested: nested IFPs also eliminate.
func TestTheorem35Nested(t *testing.T) {
	// inner: powers of two up to 4; outer: accumulate +10 images, bounded.
	inner := algebra.IFP{Var: "x", Body: algebra.Select{
		Of:   algebra.Union{L: algebra.Singleton(value.Int(1)), R: algebra.Map{Of: algebra.Rel{Name: "x"}, Var: "y", Out: algebra.FArith{Op: builtin.Times, L: algebra.FVar{Name: "y"}, R: algebra.FConst{V: value.Int(2)}}}},
		Var:  "y",
		Test: algebra.FCmp{Op: builtin.Le, L: algebra.FVar{Name: "y"}, R: algebra.FConst{V: value.Int(4)}},
	}}
	bounded := algebra.IFP{Var: "z", Body: algebra.Select{
		Of:  algebra.Union{L: inner, R: algebra.Map{Of: algebra.Rel{Name: "z"}, Var: "y", Out: algebra.FArith{Op: builtin.Plus, L: algebra.FVar{Name: "y"}, R: algebra.FConst{V: value.Int(10)}}}},
		Var: "y", Test: algebra.FCmp{Op: builtin.Lt, L: algebra.FVar{Name: "y"}, R: algebra.FConst{V: value.Int(30)}},
	}}
	want, err := algebra.Eval(bounded, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	cp, cdb, result, err := EliminateIFP(bounded, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EvalValid(cp, cdb, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsTotal(result) || !value.Equal(res.Set(result), want) {
		t.Errorf("nested elimination = %v (undef %v), want %v", res.Set(result), res.UndefElems(result), want)
	}
}
