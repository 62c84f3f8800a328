package algebra

import (
	"errors"
	"math/rand"
	"testing"

	"algrec/internal/value"
)

func TestEquiJoinKeys(t *testing.T) {
	p := FVar{Name: "p"}
	f := func(side int, idxs ...int) FExpr {
		e := FExpr(FField{Of: p, Idx: side})
		for _, i := range idxs {
			e = FField{Of: e, Idx: i}
		}
		return e
	}
	// p.1.2 = p.2.1
	test := FCmp{Op: OpEq, L: f(1, 2), R: f(2, 1)}
	lks, rks, ok := EquiJoinKeys("p", test)
	if !ok || len(lks) != 1 || len(rks) != 1 {
		t.Fatalf("keys = %v %v %v", lks, rks, ok)
	}
	if lks[0][0] != 2 || rks[0][0] != 1 {
		t.Errorf("paths = %v %v", lks, rks)
	}
	// swapped sides
	if _, _, ok := EquiJoinKeys("p", FCmp{Op: OpEq, L: f(2, 1), R: f(1, 2)}); !ok {
		t.Error("swapped sides not detected")
	}
	// conjunction with extra conditions
	and := FAnd{L: test, R: FCmp{Op: OpLt, L: f(1, 1), R: FConst{V: value.Int(5)}}}
	if lks, _, ok := EquiJoinKeys("p", and); !ok || len(lks) != 1 {
		t.Error("conjunct extraction failed")
	}
	// two equi conjuncts
	and2 := FAnd{L: test, R: FCmp{Op: OpEq, L: f(1, 1), R: f(2, 2)}}
	if lks, rks, ok := EquiJoinKeys("p", and2); !ok || len(lks) != 2 || len(rks) != 2 {
		t.Error("multi-key extraction failed")
	}
	// no equi conjunct
	for _, bad := range []FExpr{
		FCmp{Op: OpNe, L: f(1, 1), R: f(2, 1)},
		FCmp{Op: OpEq, L: f(1, 1), R: f(1, 2)}, // same side
		FCmp{Op: OpEq, L: f(1, 1), R: FConst{V: value.Int(3)}},
		FConst{V: value.True},
		FCmp{Op: OpEq, L: FVar{Name: "other"}, R: f(2, 1)},
	} {
		if _, _, ok := EquiJoinKeys("p", bad); ok {
			t.Errorf("false positive on %s", bad)
		}
	}
}

// TestHashJoinEqualsNaive: the streamed hash join computes exactly the
// reference's σ over the built product, on random tuple relations.
func TestHashJoinEqualsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mkRel := func(n int) value.Set {
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = value.Pair(value.Int(int64(r.Intn(5))), value.Int(int64(r.Intn(5))))
		}
		return value.NewSet(elems...)
	}
	p := FVar{Name: "p"}
	test := FAnd{
		L: FCmp{Op: OpEq,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: p, Idx: 2}, Idx: 1}},
		R: FCmp{Op: OpLe,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 1},
			R: FConst{V: value.Int(3)}},
	}
	e := Select{Of: Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}}, Var: "p", Test: test}
	for i := 0; i < 300; i++ {
		assertStreamEq(t, e, DB{"l": mkRel(r.Intn(12)), "r": mkRel(r.Intn(12))})
	}
}

// TestHashJoinFallback: an element a key path does not apply to joins every
// probe, so the projection error surfaces exactly as the reference raises it.
func TestHashJoinFallback(t *testing.T) {
	db := DB{
		"l": value.NewSet(value.Int(7)),
		"r": value.NewSet(value.Pair(value.Int(1), value.Int(2))),
	}
	p := FVar{Name: "p"}
	e := Select{
		Of:  Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}},
		Var: "p",
		Test: FCmp{Op: OpEq,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: p, Idx: 2}, Idx: 1}},
	}
	assertStreamEq(t, e, db)
	if _, err := NewEvaluator(db, Budget{}).Eval(e); err == nil {
		t.Error("projecting .2 out of 7 did not fail")
	}
}

// TestHashJoinTCEquivalence: end to end, the TC IFP expression evaluates
// identically on the production path and on the fully naive reference.
func TestHashJoinTCEquivalence(t *testing.T) {
	elems := make([]value.Value, 0, 20)
	for i := 0; i < 20; i++ {
		elems = append(elems, value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	db := DB{"move": value.NewSet(elems...)}
	e := tcExpr("move")
	fast, err := NewEvaluator(db, Budget{}).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewEvaluator(db, Budget{NoStreaming: true}).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(fast, slow) {
		t.Errorf("fast %d elems vs slow %d elems", fast.Len(), slow.Len())
	}
	if fast.Len() != 20*21/2 {
		t.Errorf("|tc| = %d, want 210", fast.Len())
	}
}

// TestReferenceBuildsTheProduct: the NoStreaming reference is the naive
// evaluator, so a selective equi-join whose product exceeds MaxSetSize fails
// there with ErrBudget while the streamed hash join answers it.
func TestReferenceBuildsTheProduct(t *testing.T) {
	db := DB{"A": chainSet(10), "B": chainSet(10)}
	e := Select{
		Of:   Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var:  "p",
		Test: FCmp{Op: OpEq, L: fld("p", 1, 2), R: fld("p", 2, 1)},
	}
	budget := Budget{MaxSetSize: 50}
	if got, err := NewEvaluator(db, budget).Eval(e); err != nil || got.Len() != 9 {
		t.Fatalf("streamed: got %d pairs, err %v; want 9, nil", got.Len(), err)
	}
	budget.NoStreaming = true
	if _, err := NewEvaluator(db, budget).Eval(e); !errors.Is(err, ErrBudget) {
		t.Fatalf("reference: got %v, want ErrBudget (a 100-pair product over a 50 cap)", err)
	}
}
