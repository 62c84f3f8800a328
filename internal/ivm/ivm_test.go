package ivm

import (
	"errors"
	"reflect"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
)

func mustPlan(t *testing.T, sem query.Semantics, src string) *query.Plan {
	t.Helper()
	plan, err := query.Compile(query.LangDatalog, sem, src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return plan
}

func fact(pred string, args ...int64) datalog.Fact {
	vs := make([]value.Value, len(args))
	for i, a := range args {
		vs[i] = value.Int(a)
	}
	return datalog.Fact{Pred: pred, Args: vs}
}

// checkAgainstExecute pins the view's outcome bit-for-bit against a
// from-scratch Execute over the same database.
func checkAgainstExecute(t *testing.T, v *View, plan *query.Plan, db algebra.DB) {
	t.Helper()
	got, err := v.Outcome()
	if err != nil {
		t.Fatalf("Outcome: %v", err)
	}
	want, err := query.Execute(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outcome diverged\n got: %+v\nwant: %+v", got, want)
	}
}

// step applies one batch to both the view and the reference database.
func step(t *testing.T, v *View, plan *query.Plan, db algebra.DB, ins, del []datalog.Fact) algebra.DB {
	t.Helper()
	if _, err := v.Apply(ins, del); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	db = ApplyDB(db, ins, del)
	checkAgainstExecute(t, v, plan, db)
	return db
}

func TestIncrementalTCInsertDelete(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
	`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeIncremental {
		t.Fatalf("Mode = %v, want incremental", v.Mode())
	}
	checkAgainstExecute(t, v, plan, db)

	// Grow a chain, bridge it, then cut it in the middle.
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 1, 2), fact("e", 2, 3)}, nil)
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 3, 4)}, nil)
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 0, 1)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 2, 3)})
	// Alternative path around the cut, then remove it again.
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 2, 4), fact("e", 4, 3)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 2, 4)})
	// Delete and re-insert in one batch: net no-op.
	d, err := v.Apply([]datalog.Fact{fact("e", 0, 1)}, []datalog.Fact{fact("e", 0, 1)})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("delete+insert same fact produced delta %+v", d)
	}
	checkAgainstExecute(t, v, plan, db)
}

func TestIncrementalStratifiedNegation(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `
		r(X) :- n(X), not b(X).
		b(X) :- e(X, Y).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
		iso(X) :- n(X), not reach(X).
		reach(Y) :- tc(X, Y).
	`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeIncremental {
		t.Fatalf("Mode = %v, want incremental", v.Mode())
	}
	db = step(t, v, plan, db, []datalog.Fact{fact("n", 1), fact("n", 2), fact("n", 3)}, nil)
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 1, 2)}, nil)
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 2, 3)}, nil)
	// Deleting the first edge flips r(1) back on and empties reach via tc.
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 1, 2)})
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 2, 3)})
}

func TestIncrementalBuiltinsAndComparisons(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `
		p(X) :- d(X), X < 4.
		q(W) :- d(V), W = plus(V, 1), W < 4.
		s(X, Y) :- d(X), d(Y), X < Y.
	`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db = step(t, v, plan, db, []datalog.Fact{fact("d", 1), fact("d", 3), fact("d", 5)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("d", 3)})
	db = step(t, v, plan, db, []datalog.Fact{fact("d", 2)}, []datalog.Fact{fact("d", 1)})
}

func TestIncrementalProgramFactsSurviveDeletion(t *testing.T) {
	// e(1,2) is a program fact: deleting it from the database must not
	// remove it (Execute merges program facts on every evaluation).
	plan := mustPlan(t, query.SemStratified, `
		e(1, 2).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
	`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db = step(t, v, plan, db, []datalog.Fact{fact("e", 2, 3)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 1, 2)})
	out, err := v.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pf := range out.Datalog.Preds {
		if pf.Pred == "tc" {
			for _, k := range pf.True {
				if k == "tc(1, 3)" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("tc(1, 3) missing after deleting the db copy of a program fact: %+v", out.Datalog)
	}
}

func TestIncrementalNewPredicateFromMutation(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `p(X) :- d(X).`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// z is not mentioned by the program; it must still appear in the
	// outcome while it has facts, and vanish when they are deleted.
	db = step(t, v, plan, db, []datalog.Fact{fact("z", 7, 8), fact("d", 1)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("z", 7, 8)})
}

func TestRecomputeFallbackMatchesIncremental(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
		iso(X) :- n(X), not b(X).
		b(X) :- e(X, Y).
	`
	plan := mustPlan(t, query.SemStratified, src)
	db := algebra.DB{}
	inc, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New(incremental): %v", err)
	}
	rec, err := New(plan, db, query.Options{Budget: algebra.Budget{NoStreaming: true}})
	if err != nil {
		t.Fatalf("New(recompute): %v", err)
	}
	if inc.Mode() != ModeIncremental || rec.Mode() != ModeRecompute {
		t.Fatalf("modes = %v/%v, want incremental/recompute", inc.Mode(), rec.Mode())
	}
	batches := []struct{ ins, del []datalog.Fact }{
		{ins: []datalog.Fact{fact("n", 1), fact("n", 2), fact("e", 1, 2)}},
		{ins: []datalog.Fact{fact("e", 2, 3)}},
		{del: []datalog.Fact{fact("e", 1, 2)}},
		{ins: []datalog.Fact{fact("e", 1, 3)}, del: []datalog.Fact{fact("e", 2, 3)}},
	}
	for bi, b := range batches {
		di, err := inc.Apply(b.ins, b.del)
		if err != nil {
			t.Fatalf("batch %d incremental: %v", bi, err)
		}
		dr, err := rec.Apply(b.ins, b.del)
		if err != nil {
			t.Fatalf("batch %d recompute: %v", bi, err)
		}
		if !reflect.DeepEqual(di, dr) {
			t.Fatalf("batch %d deltas diverged\n inc: %+v\n rec: %+v", bi, di, dr)
		}
		oi, err := inc.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		or, err := rec.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oi, or) {
			t.Fatalf("batch %d outcomes diverged\n inc: %+v\n rec: %+v", bi, oi, or)
		}
	}
}

func TestRecomputeModeForUnsupportedPlans(t *testing.T) {
	// Non-stratified fragments fall back to recompute but stay correct.
	plan, err := query.Compile(query.LangDatalog, query.SemWellFounded, `
		win(X) :- move(X, Y), not win(Y).
	`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeRecompute {
		t.Fatalf("Mode = %v, want recompute for a non-stratified program", v.Mode())
	}
	db = step(t, v, plan, db, []datalog.Fact{fact("move", 1, 2), fact("move", 2, 3)}, nil)
	db = step(t, v, plan, db, []datalog.Fact{fact("move", 3, 1)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("move", 2, 3)})
}

// TestUnstratifiedViewRecomputesOnKernel: a subscription on the WIN game is
// not maintained incrementally — the program is not stratified — but each
// recompute is the relational kernel's three-valued evaluation, and over a
// schedule of inserts and deletes the view's outcome stays what a fresh
// Execute and the grounded reference compute, undefined facts included.
func TestUnstratifiedViewRecomputesOnKernel(t *testing.T) {
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	t.Cleanup(func() { obsv.SetDefault(prev) })
	plan := mustPlan(t, query.SemValid, `
		win(X) :- move(X, Y), not win(Y).
		lose(X) :- move(X, Y), not win(X).`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeRecompute {
		t.Fatalf("Mode = %v, want recompute for a non-stratified program", v.Mode())
	}
	x, undefined := uint64(2463534242), 0
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % 9)
	}
	for batch := 0; batch < 50; batch++ {
		ins := []datalog.Fact{fact("move", next(), next()), fact("move", next(), next())}
		del := []datalog.Fact{fact("move", next(), next()), fact("move", next(), next()), fact("move", next(), next())}
		db = step(t, v, plan, db, ins, del)
		got, _ := v.Outcome()
		want, err := query.ExecuteGrounded(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("ExecuteGrounded: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: the view left the grounded reference\n got: %+v\nwant: %+v", batch, got.Datalog, want.Datalog)
		}
		if !got.WellDefined {
			undefined++
		}
	}
	if undefined == 0 || undefined == 50 {
		t.Errorf("%d of 50 outcomes had undefined facts; the schedule should visit both kinds", undefined)
	}
	if snap := stats.Snapshot(); snap["rel.fallbacks.unstratified"] != 0 || snap["rel.units.alternating"] < 100 || snap["ivm.applies.recompute"] != 50 {
		t.Errorf("the recomputes did not run on the kernel: %v", snap)
	}
}

func TestApplyDBMapping(t *testing.T) {
	db := algebra.DB{}
	db = ApplyDB(db, []datalog.Fact{fact("e", 1, 2), fact("d", 7)}, nil)
	if db["e"].Len() != 1 || db["d"].Len() != 1 {
		t.Fatalf("unexpected relations: %+v", db)
	}
	if !db["d"].Has(value.Int(7)) {
		t.Fatalf("unary fact should insert a scalar, got %v", db["d"])
	}
	if !db["e"].Has(value.NewTuple(value.Int(1), value.Int(2))) {
		t.Fatalf("binary fact should insert a pair, got %v", db["e"])
	}
	db2 := ApplyDB(db, nil, []datalog.Fact{fact("e", 1, 2), fact("missing", 0)})
	if db2["e"].Len() != 0 {
		t.Fatalf("deletion failed: %v", db2["e"])
	}
	if db["e"].Len() != 1 {
		t.Fatalf("ApplyDB mutated its input")
	}
}

// TestIncrementalBudgetPoisonsView: an overrun is answered by a rebuild
// (TestBudgetOverrunRebuilds), so what still poisons a view is a budget the
// rebuild cannot meet either — here 50 join steps for an 820-fact closure.
func TestIncrementalBudgetPoisonsView(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
	`)
	var opts query.Options
	opts.Ground.MaxRules = 50
	v, err := New(plan, algebra.DB{}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ins []datalog.Fact
	for i := int64(0); i < 40; i++ {
		ins = append(ins, fact("e", i, i+1))
	}
	if _, err := v.Apply(ins, nil); err == nil {
		t.Fatal("Apply under a tiny work budget should fail")
	} else if !errors.Is(err, algebra.ErrBudget) {
		t.Fatalf("want a budget error, got %v", err)
	}
	if _, err := v.Outcome(); err == nil {
		t.Fatal("a poisoned view should refuse Outcome")
	}
}

// TestSelfSupportingDerivationDeleted is the regression pinned by the
// dlog-ivm fuzz corpus: deleting a base fact that a recursive rule re-derives
// from itself must remove the fact — DRed has to over-delete the suspect
// derivation and fail rederivation, not let the self-support keep it alive.
func TestSelfSupportingDerivationDeleted(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `p(X) :- p(X).`)
	db := algebra.DB{}
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeIncremental {
		t.Fatalf("Mode = %v, want incremental", v.Mode())
	}
	db = step(t, v, plan, db, []datalog.Fact{fact("p", 0)}, nil)
	db = step(t, v, plan, db, nil, []datalog.Fact{fact("p", 0)})
	d, err := v.Apply(nil, []datalog.Fact{fact("p", 0)})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("deleting an absent fact produced delta %+v", d)
	}
}

// TestVanishedPredicateDeltaOrder pins the recompute fallback's delta
// ordering: a predicate that disappears from the outcome entirely (its only
// base fact deleted, no rule mentions it) must appear in name order among
// the other deltas, exactly as the incremental engine emits it.
func TestVanishedPredicateDeltaOrder(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `s(X, X) :- q(X).`)
	v, err := New(plan, algebra.DB{}, query.Options{Budget: algebra.Budget{NoStreaming: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.Mode() != ModeRecompute {
		t.Fatalf("Mode = %v, want recompute", v.Mode())
	}
	if _, err := v.Apply([]datalog.Fact{fact("p", 0)}, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d, err := v.Apply([]datalog.Fact{fact("q", 1)}, []datalog.Fact{fact("p", 0)})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var order []string
	for _, pd := range d.Preds {
		order = append(order, pd.Pred)
	}
	if !reflect.DeepEqual(order, []string{"p", "q", "s"}) {
		t.Fatalf("delta preds out of name order: %v", order)
	}
}
