package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"algrec/internal/obsv"
	"algrec/internal/value"
)

func relx() Expr { return Rel{Name: "x"} }
func rele() Expr { return Rel{Name: "e"} }

func TestDeltaDistributive(t *testing.T) {
	sel := func(of Expr) Expr {
		return Select{Of: of, Var: "v", Test: FCmp{Op: OpLt, L: FVar{Name: "v"}, R: FConst{V: value.Int(100)}}}
	}
	mp := func(of Expr) Expr {
		return Map{Of: of, Var: "v", Out: FArith{Op: OpPlus, L: FVar{Name: "v"}, R: FConst{V: value.Int(1)}}}
	}
	cases := []struct {
		name string
		e    Expr
		want bool
	}{
		{"var itself", relx(), true},
		{"no occurrence", rele(), true},
		{"union", Union{L: relx(), R: rele()}, true},
		{"select of var", sel(relx()), true},
		{"map of var", mp(relx()), true},
		{"diff left", Diff{L: relx(), R: rele()}, true},
		{"diff right", Diff{L: rele(), R: relx()}, false},
		{"diff both", Diff{L: relx(), R: relx()}, false},
		{"product one side", Product{L: relx(), R: rele()}, true},
		{"product other side", Product{L: rele(), R: relx()}, true},
		{"product both sides", Product{L: relx(), R: relx()}, false},
		{"product neither side", Product{L: rele(), R: rele()}, true},
		{"nested ifp shadowing", IFP{Var: "x", Body: Union{L: relx(), R: rele()}}, true},
		{"nested ifp capturing", IFP{Var: "y", Body: Union{L: Rel{Name: "y"}, R: relx()}}, false},
		{"flip", Flip{E: relx()}, true},
		{"flip of diff right", Flip{E: Diff{L: rele(), R: relx()}}, false},
		{"call mentioning var", Call{Name: "f", Args: []Expr{relx()}}, false},
		{"call not mentioning var", Call{Name: "f", Args: []Expr{rele()}}, true},
		{"tc step", Union{L: rele(), R: Product{L: relx(), R: rele()}}, true},
	}
	for _, c := range cases {
		if got := DeltaDistributive(c.e, "x"); got != c.want {
			t.Errorf("%s: DeltaDistributive(%v, x) = %v, want %v", c.name, c.e, got, c.want)
		}
	}
}

// TestDeltaDistributiveSemantics checks the analysis against its defining
// equation: whenever DeltaDistributive claims e distributes over union in x,
// e(A ∪ B) must equal e(A) ∪ e(B) on random splits.
func TestDeltaDistributiveSemantics(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		body := randIFPBody(r, 3)
		if !DeltaDistributive(body, "x") {
			return true
		}
		db := DB{"e": randIntSet(r, 6, 20)}
		union := randIntSet(r, 8, 20)
		var aElems, bElems []value.Value
		for _, v := range union.Elems() {
			if r.Intn(2) == 0 {
				aElems = append(aElems, v)
			} else {
				bElems = append(bElems, v)
			}
		}
		a, b := value.NewSet(aElems...), value.NewSet(bElems...)
		evalWith := func(s value.Set) (value.Set, error) {
			ev := NewEvaluator(db, Budget{MaxIFPIters: 500, MaxSetSize: 20000})
			return ev.eval(body, true, map[string]value.Set{"x": s})
		}
		whole, err1 := evalWith(union)
		onA, err2 := evalWith(a)
		onB, err3 := evalWith(b)
		if err1 != nil || err2 != nil || err3 != nil {
			return err1 != nil // a failing body may fail on the parts too
		}
		if !value.Equal(whole, onA.Union(onB)) {
			t.Logf("seed %d: body %v: e(A∪B)=%v but e(A)∪e(B)=%v", seed, body, whole, onA.Union(onB))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randIFPBody generates a random body for IFP_x, mixing distributive and
// non-distributive shapes (Diff with x on the right, Product with x on both
// sides, nested IFPs).
func randIFPBody(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return relx()
		case 1:
			return rele()
		default:
			return Lit{Set: randIntSet(r, 3, 7)}
		}
	}
	v := FVar{Name: "v"}
	switch r.Intn(7) {
	case 0:
		return Union{L: randIFPBody(r, depth-1), R: randIFPBody(r, depth-1)}
	case 1:
		return Diff{L: randIFPBody(r, depth-1), R: randIFPBody(r, depth-1)}
	case 2:
		return Select{Of: randIFPBody(r, depth-1), Var: "v",
			Test: FCmp{Op: OpLt, L: v, R: FConst{V: value.Int(int64(r.Intn(12)))}}}
	case 3:
		// +1 mod m keeps the fixpoint finite while forcing several rounds
		return Map{Of: randIFPBody(r, depth-1), Var: "v",
			Out: FArith{Op: OpMod, L: FArith{Op: OpPlus, L: v, R: FConst{V: value.Int(1)}}, R: FConst{V: value.Int(int64(2 + r.Intn(9)))}}}
	case 4:
		return Product{L: randIFPBody(r, depth-1), R: randIFPBody(r, depth-1)}
	case 5:
		return IFP{Var: "y", Body: Union{L: Rel{Name: "y"}, R: randIFPBody(r, depth-1)}}
	default:
		return Flip{E: randIFPBody(r, depth-1)}
	}
}

func randIntSet(r *rand.Rand, n, bound int) value.Set {
	elems := make([]value.Value, 0, n)
	for i := 0; i < r.Intn(n+1); i++ {
		elems = append(elems, value.Int(int64(r.Intn(bound))))
	}
	return value.NewSet(elems...)
}

// TestPropertySemiNaiveIFPEquivalence: on random IFP bodies, the semi-naive
// delta engine and the reference's naive engine compute the same fixpoint —
// the whole point of the DeltaDistributive analysis.
func TestPropertySemiNaiveIFPEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := IFP{Var: "x", Body: randIFPBody(r, 3)}
		db := DB{"e": randIntSet(r, 6, 20)}
		budget := Budget{MaxIFPIters: 500, MaxSetSize: 20000}
		semi, errS := NewEvaluator(db, budget).Eval(e)
		naive, errN := NewReference(db, budget).Eval(e)
		if errS != nil || errN != nil {
			// A budget blowup may hit the naive engine at a larger
			// intermediate than the semi-naive one; either failing is a draw.
			return true
		}
		if !value.Equal(semi, naive) {
			t.Logf("seed %d: IFP body %v: semi-naive %v != naive %v", seed, e.Body, semi, naive)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// chainTC returns the transitive-closure IFP over a length-n chain plus the
// expected per-round deltas: round r adds the n−r paths of length r+1, and a
// final round adds nothing.
func chainTC(n int) (Expr, DB, []int) {
	elems := make([]value.Value, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	p := FVar{Name: "p"}
	step := Select{
		Of:  Product{L: Rel{Name: "x"}, R: Rel{Name: "e"}},
		Var: "p",
		Test: FCmp{Op: OpEq,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: p, Idx: 2}, Idx: 1}},
	}
	body := Union{L: Rel{Name: "e"}, R: Map{Of: step, Var: "p",
		Out: FTuple{Elems: []FExpr{FField{Of: FField{Of: p, Idx: 1}, Idx: 1}, FField{Of: FField{Of: p, Idx: 2}, Idx: 2}}}}}
	deltas := make([]int, 0, n+1)
	for r := 0; r < n; r++ {
		deltas = append(deltas, n-r)
	}
	deltas = append(deltas, 0)
	return IFP{Var: "x", Body: body}, DB{"e": value.NewSet(elems...)}, deltas
}

// TestIFPDeltaCounts pins the observability of the delta engine on a
// hand-computed workload: transitive closure of a length-6 chain takes 7
// rounds with per-round growth [6, 5, 4, 3, 2, 1, 0] and a 21-pair result,
// semi-naive in production and naive in the reference (the accumulator
// trajectory is identical; only the bound input differs).
func TestIFPDeltaCounts(t *testing.T) {
	e, db, wantDeltas := chainTC(6)
	for _, mode := range []string{"seminaive", "naive"} {
		var events []obsv.IFPStats
		ev := NewEvaluator(db, Budget{})
		if mode == "naive" {
			ev = NewReference(db, Budget{})
		}
		ev.SetCollector(obsv.Func(func(e obsv.Event) {
			if s, ok := e.(obsv.IFPStats); ok {
				events = append(events, s)
			}
		}))
		got, err := ev.Eval(e)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got.Len() != 21 {
			t.Fatalf("%s: |tc| = %d, want 21", mode, got.Len())
		}
		if len(events) != 1 {
			t.Fatalf("%s: %d IFP events, want 1", mode, len(events))
		}
		ev1 := events[0]
		if ev1.Mode != mode {
			t.Errorf("mode = %q, want %q", ev1.Mode, mode)
		}
		if ev1.Rounds != 7 || ev1.Result != 21 {
			t.Errorf("%s: rounds/result = %d/%d, want 7/21", mode, ev1.Rounds, ev1.Result)
		}
		if len(ev1.Deltas) != len(wantDeltas) {
			t.Fatalf("%s: deltas %v, want %v", mode, ev1.Deltas, wantDeltas)
		}
		for i := range wantDeltas {
			if ev1.Deltas[i] != wantDeltas[i] {
				t.Fatalf("%s: deltas %v, want %v", mode, ev1.Deltas, wantDeltas)
			}
		}
	}
}

// TestIFPStatsCounters folds the same workload through the Stats collector
// and checks the counter vocabulary.
func TestIFPStatsCounters(t *testing.T) {
	e, db, _ := chainTC(6)
	st := obsv.NewStats()
	ev := NewEvaluator(db, Budget{})
	ev.SetCollector(st)
	if _, err := ev.Eval(e); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	want := map[string]int64{
		"ifp.seminaive.calls":      1,
		"ifp.seminaive.rounds":     7,
		"ifp.seminaive.deltaElems": 21,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d (snapshot %v)", k, snap[k], v, snap)
		}
	}
}
