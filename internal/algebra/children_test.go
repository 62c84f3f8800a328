package algebra_test

import (
	"reflect"
	"strconv"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/randgen"
	"algrec/internal/value"
)

// TestChildrenRoundTrip: at every node of every Expr variant and of
// randgen-drawn expressions and programs, WithChildren(e, Children(e))
// prints as e, and Children(WithChildren(e, ks)) returns ks.
func TestChildrenRoundTrip(t *testing.T) {
	r, s, x := algebra.Rel{Name: "r"}, algebra.Rel{Name: "s"}, algebra.FVar{Name: "x"}
	exprs := []algebra.Expr{
		r,
		algebra.Singleton(value.Int(1)),
		algebra.Union{L: r, R: s},
		algebra.Diff{L: r, R: s},
		algebra.Product{L: r, R: s},
		algebra.Select{Of: r, Var: "x", Test: algebra.FCmp{Op: algebra.OpEq, L: x, R: algebra.FConst{V: value.Int(1)}}},
		algebra.Map{Of: r, Var: "x", Out: algebra.FField{Of: x, Idx: 1}},
		algebra.IFP{Var: "x", Body: algebra.Union{L: r, R: algebra.Rel{Name: "x"}}},
		algebra.Flip{E: r},
		algebra.Call{Name: "f", Args: []algebra.Expr{r, s, algebra.EmptyLit}},
		algebra.Call{Name: "g"},
	}
	for seed := int64(0); seed < 100; seed++ {
		g := randgen.New(seed, randgen.Config{Size: 3})
		exprs = append(exprs, g.ExprInstance().Expr, g.IFPExprInstance().Expr)
		for _, d := range g.CoreInstance(true).Prog.Defs {
			exprs = append(exprs, d.Body)
		}
	}
	var check func(algebra.Expr)
	check = func(e algebra.Expr) {
		kids := algebra.Children(e)
		if got := algebra.WithChildren(e, kids).String(); got != e.String() {
			t.Errorf("WithChildren(e, Children(e)) = %s, want %s", got, e)
		}
		ks := make([]algebra.Expr, len(kids))
		for i := range ks {
			ks[i] = algebra.Rel{Name: "k" + strconv.Itoa(i)}
		}
		if got := algebra.Children(algebra.WithChildren(e, ks)); len(got)+len(ks) > 0 && !reflect.DeepEqual(got, ks) {
			t.Errorf("Children(WithChildren(%s, %v)) = %v", e, ks, got)
		}
		for _, k := range kids {
			check(k)
		}
	}
	for _, e := range exprs {
		check(e)
	}
}
