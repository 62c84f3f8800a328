package ivm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// reachProgram is the write workload's recursive view: what node 0 reaches.
const reachProgram = `
	r(X) :- e(0, X).
	r(Y) :- r(X), e(X, Y).
`

// withStats installs a counter collector as the process default for the
// test, so the views it builds report their per-Apply events to it.
func withStats(t *testing.T) *obsv.Stats {
	t.Helper()
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	t.Cleanup(func() { obsv.SetDefault(prev) })
	return stats
}

// applyCounted applies one batch and returns its delta with the counters the
// batch's IVM event added.
func applyCounted(t *testing.T, stats *obsv.Stats, v *View, ins, del []datalog.Fact) (*ResultDelta, obsv.Snapshot) {
	t.Helper()
	before := stats.Snapshot()
	d, err := v.Apply(ins, del)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return d, stats.Snapshot().Sub(before)
}

// hierarchy is a binary tree on nodes 0..n-1 (node i hangs under (i-1)/2) —
// the bulk whose size must not matter — plus a gadget of fixed shape under
// node 1: a chain g, g+1, ..., g+gadget-1 with g = 1_000_000, entered by the
// edge (1, g). Deleting that edge over-deletes exactly the gadget.
const (
	gadgetRoot = 1_000_000
	gadgetSize = 64
)

func hierarchy(n int) algebra.DB {
	var elems []value.Value
	edge := func(a, b int64) {
		elems = append(elems, value.NewTuple(value.Int(a), value.Int(b)))
	}
	for i := 1; i < n; i++ {
		edge(int64((i-1)/2), int64(i))
	}
	edge(1, gadgetRoot)
	for k := int64(0); k < gadgetSize-1; k++ {
		edge(gadgetRoot+k, gadgetRoot+k+1)
	}
	return algebra.DB{"e": value.NewSet(elems...)}
}

// TestMaintenanceCostIsLocal pins what a batch costs in join steps, exactly
// and independently of the size of the view it maintains: a leaf-churn batch
// costs a constant per fact, an interior delete a constant per over-deleted
// row and in-edge, and doubling the graph around them changes nothing. Before
// re-derivation entered a plan ordered for its bindings, each deleted fact
// scanned the whole view.
func TestMaintenanceCostIsLocal(t *testing.T) {
	stats := withStats(t)
	plan := mustPlan(t, query.SemStratified, reachProgram)
	type cost struct{ churn, interior, shortcut int64 }
	measure := func(n int) cost {
		db := hierarchy(n)
		inc, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rec, err := New(plan, db, query.Options{Budget: algebra.Budget{NoStreaming: true}})
		if err != nil {
			t.Fatalf("New(recompute): %v", err)
		}
		var c cost
		apply := func(ins, del []datalog.Fact) int64 {
			d, moved := applyCounted(t, stats, inc, ins, del)
			want, err := rec.Apply(ins, del)
			if err != nil {
				t.Fatalf("recompute Apply: %v", err)
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("n=%d: delta diverged from recompute\n got: %+v\nwant: %+v", n, d, want)
			}
			if moved["ivm.fallbacks"] != 0 || moved["ivm.scans"] != 0 {
				t.Fatalf("n=%d: batch fell back or scanned: %v", n, moved)
			}
			return moved["ivm.steps"]
		}

		// Leaf churn: four fresh leaves come, then four go while four more
		// come — the write workload's steady state.
		leaves := func(from int64) (fs []datalog.Fact) {
			for k := int64(0); k < 4; k++ {
				fs = append(fs, fact("e", 3+k, from+k))
			}
			return fs
		}
		apply(leaves(2_000_000), nil)
		c.churn = apply(leaves(2_000_004), leaves(2_000_000))

		// Interior delete without alternative support: the gadget goes.
		c.interior = apply(nil, []datalog.Fact{fact("e", 1, gadgetRoot)})
		apply([]datalog.Fact{fact("e", 1, gadgetRoot)}, nil)
		// With one: a second way into the middle of the gadget keeps its
		// lower half, which is over-deleted and re-derived.
		apply([]datalog.Fact{fact("e", 2, gadgetRoot+gadgetSize/2)}, nil)
		c.shortcut = apply(nil, []datalog.Fact{fact("e", 1, gadgetRoot)})
		return c
	}

	small, large := measure(2_000), measure(4_000)
	if small != large {
		t.Fatalf("cost depends on the size of the view: %+v at 2000 nodes, %+v at 4000", small, large)
	}
	// 8 facts; every over-deleted row has one in-edge (the shortcut's target
	// has two).
	if small.churn > 8*8 {
		t.Errorf("leaf churn batch cost %d join steps, want at most 8 per fact", small.churn)
	}
	if small.interior > 8*gadgetSize || small.shortcut > 8*(gadgetSize+1) {
		t.Errorf("interior deletes cost %d and %d join steps, want at most 8 per over-deleted row and in-edge", small.interior, small.shortcut)
	}
	t.Logf("join steps: churn batch %d, interior delete %d, with alternative support %d", small.churn, small.interior, small.shortcut)
}

// TestInteriorDeleteInsideDefaultBudget deletes an edge under the root of a
// 10^4-edge hierarchy — half the view is over-deleted — and expects the
// batch to be maintained, not rebuilt, inside the default work budget.
func TestInteriorDeleteInsideDefaultBudget(t *testing.T) {
	stats := withStats(t)
	plan := mustPlan(t, query.SemStratified, reachProgram)
	db := hierarchy(10_000)
	v, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	del := []datalog.Fact{fact("e", 0, 1)}
	_, moved := applyCounted(t, stats, v, nil, del)
	if moved["ivm.fallbacks"] != 0 || moved["ivm.units.dred"] != 1 {
		t.Fatalf("interior delete was not maintained by DRed: %v", moved)
	}
	if moved["ivm.overDeleted"] < 5_000 || moved["ivm.steps"] > 20*moved["ivm.overDeleted"] {
		t.Fatalf("over-deleted %d rows in %d join steps", moved["ivm.overDeleted"], moved["ivm.steps"])
	}
	checkAgainstExecute(t, v, plan, ApplyDB(db, nil, del))
}

// freshNodes hands out node ids no earlier test run in this process has
// mentioned (-count=2 runs a test twice against the same global interner).
var freshNodes int64 = 10_000_000

// TestChurnLeavesNothingBehind replays 2 000 leaf-churn batches with fresh
// node ids over a view of every strategy and expects the process-global
// arena to grow by exactly the fresh scalars — no row, base or derived, is
// ever interned — and the engine's tables to stay at their warm size.
func TestChurnLeavesNothingBehind(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, reachProgram+`
		orphan(Y) :- e(X, Y), not r(X).
		gp(X, Z) :- e(X, Y), e(Y, Z).
	`)
	v, err := New(plan, hierarchy(500), query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const lag, perBatch, batches = 8, 4, 2_000
	base := freshNodes
	freshNodes += (2*lag + batches) * perBatch
	batch := func(i int) (ins, del []datalog.Fact) {
		for k := 0; k < perBatch; k++ {
			// Half the leaves hang under reached nodes, half under an
			// unreached one (an orphan appears and goes).
			parent := int64(3 + k)
			if k%2 == 1 {
				parent = 5_000_000
			}
			ins = append(ins, fact("e", parent, base+int64(i*perBatch+k)))
			if i >= lag {
				del = append(del, fact("e", parent, base+int64((i-lag)*perBatch+k)))
			}
		}
		return ins, del
	}
	slots := func() (n int) {
		for _, rel := range v.eng.Rels {
			for _, tab := range rel.Tables {
				n += int(tab.Rows())
			}
		}
		return n
	}
	i := 0
	for ; i < 2*lag; i++ {
		if _, err := v.Apply(batch(i)); err != nil {
			t.Fatalf("warm-up batch %d: %v", i, err)
		}
	}
	warmIDs, warmSlots := intern.Global().Len(), slots()
	for ; i < 2*lag+batches; i++ {
		ins, del := batch(i)
		d, err := v.Apply(ins, del)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if d.Empty() {
			t.Fatalf("batch %d changed nothing", i)
		}
	}
	if grew := intern.Global().Len() - warmIDs; grew != batches*perBatch {
		t.Errorf("arena grew by %d IDs over %d batches, want exactly the %d fresh scalars", grew, batches, batches*perBatch)
	}
	if now := slots(); now > warmSlots+4*perBatch {
		t.Errorf("tables grew from %d to %d row slots under steady churn", warmSlots, now)
	}
}

// TestBudgetOverrunRebuilds: a batch that outruns its work budget is
// answered by a rebuild, not by a poisoned view — same delta and outcome as
// recomputation, the view stays incremental, and the next batch is
// maintained incrementally again.
func TestBudgetOverrunRebuilds(t *testing.T) {
	stats := withStats(t)
	plan := mustPlan(t, query.SemStratified, reachProgram)
	var chain []value.Value
	for i := int64(0); i < 60; i++ {
		chain = append(chain, value.NewTuple(value.Int(i), value.Int(i+1)))
	}
	db := algebra.DB{"e": value.NewSet(chain...)}
	cut := []datalog.Fact{fact("e", 0, 1)}

	// Under the default budget, the interior delete costs more join steps
	// than the build or the re-insertion: a budget just below it trips there
	// and nowhere else.
	probe, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, moved := applyCounted(t, stats, probe, nil, cut)
	var opts query.Options
	opts.Ground.MaxRules = int(moved["ivm.steps"]) - 1

	inc, err := New(plan, db, opts)
	if err != nil {
		t.Fatalf("New under MaxRules=%d: %v", opts.Ground.MaxRules, err)
	}
	recOpts := opts
	recOpts.Budget.NoStreaming = true
	rec, err := New(plan, db, recOpts)
	if err != nil {
		t.Fatalf("New(recompute): %v", err)
	}
	for bi, b := range []struct {
		ins, del []datalog.Fact
		rebuilt  int64
	}{
		{del: cut, rebuilt: 1},
		{ins: cut},
		{del: []datalog.Fact{fact("e", 59, 60)}},
	} {
		got, moved := applyCounted(t, stats, inc, b.ins, b.del)
		want, err := rec.Apply(b.ins, b.del)
		if err != nil {
			t.Fatalf("batch %d recompute: %v", bi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d delta diverged\n got: %+v\nwant: %+v", bi, got, want)
		}
		// moved also holds the recompute view's event; the fallback counter
		// is the incremental view's alone.
		if moved["ivm.fallbacks"] != b.rebuilt {
			t.Fatalf("batch %d: fallbacks = %d, want %d (%v)", bi, moved["ivm.fallbacks"], b.rebuilt, moved)
		}
		oi, err := inc.Outcome()
		if err != nil {
			t.Fatalf("batch %d: Outcome after overrun: %v", bi, err)
		}
		or, _ := rec.Outcome()
		if !reflect.DeepEqual(oi, or) {
			t.Fatalf("batch %d outcomes diverged\n inc: %+v\n rec: %+v", bi, oi, or)
		}
	}
	if inc.Mode() != ModeIncremental {
		t.Fatalf("Mode = %v after a rebuild, want incremental", inc.Mode())
	}
}

// TestFlatTableShapes drives the shapes the flat tables must not lose, each
// batch checked bit for bit against a from-scratch Execute.
func TestFlatTableShapes(t *testing.T) {
	ints := func(vs ...int64) []value.Value {
		out := make([]value.Value, len(vs))
		for i, v := range vs {
			out[i] = value.Int(v)
		}
		return out
	}
	t.Run("several arities under one predicate", func(t *testing.T) {
		// A heterogeneous database set maps scalars to unary and tuples to
		// n-ary facts of the same predicate; deletes of an arity the
		// predicate does not hold are no-ops.
		plan := mustPlan(t, query.SemStratified, `
			one(X) :- d(X).
			two(X, Y) :- d(X, Y).
			both(X) :- d(X), d(X, Y).
		`)
		db := algebra.DB{"d": value.NewSet(value.Int(1), value.Int(2),
			value.NewTuple(ints(1, 7)...), value.NewTuple(ints(4, 5, 6)...))}
		v, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		checkAgainstExecute(t, v, plan, db)
		db = step(t, v, plan, db, []datalog.Fact{fact("d", 2, 8)}, []datalog.Fact{fact("d", 1, 7, 7), fact("d", 7)})
		db = step(t, v, plan, db, []datalog.Fact{fact("d", 9, 9, 9, 9)}, []datalog.Fact{fact("d", 1), fact("d", 4, 5, 6)})
		step(t, v, plan, db, nil, []datalog.Fact{fact("d", 1, 7), fact("d", 2, 8), fact("d", 2)})
	})
	t.Run("program facts beside database facts", func(t *testing.T) {
		plan := mustPlan(t, query.SemStratified, `
			e(1, 2).
			r(2).
			r(Y) :- r(X), e(X, Y).
		`)
		db := algebra.DB{"e": value.NewSet(value.NewTuple(ints(1, 2)...), value.NewTuple(ints(2, 3)...)), "r": value.NewSet(value.Int(1))}
		v, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		checkAgainstExecute(t, v, plan, db)
		// The database copies go; the program's stay.
		db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 1, 2), fact("r", 1)})
		db = step(t, v, plan, db, []datalog.Fact{fact("r", 2)}, []datalog.Fact{fact("e", 2, 3)})
		step(t, v, plan, db, nil, []datalog.Fact{fact("r", 2)})
	})
	t.Run("computed head arguments", func(t *testing.T) {
		// A head-bound re-derivation cannot invert succ: the argument is
		// checked once the body has bound X.
		plan := mustPlan(t, query.SemStratified, `
			cnt(succ(X)) :- cnt(X), ok(X).
			twice(times(X, 2), X) :- ok(X), X < 3.
		`)
		db := algebra.DB{"cnt": value.NewSet(value.Int(0)), "ok": value.NewSet(ints(0, 1, 2, 3, 4)...)}
		v, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		checkAgainstExecute(t, v, plan, db)
		db = step(t, v, plan, db, nil, []datalog.Fact{fact("ok", 2)})
		db = step(t, v, plan, db, []datalog.Fact{fact("cnt", 3)}, nil)
		db = step(t, v, plan, db, []datalog.Fact{fact("ok", 2)}, []datalog.Fact{fact("cnt", 3)})
		step(t, v, plan, db, nil, []datalog.Fact{fact("cnt", 0)})
	})
	t.Run("negated pivot and propositional atoms", func(t *testing.T) {
		plan := mustPlan(t, query.SemStratified, `
			b(X) :- e(X, Y).
			iso(X) :- n(X), not b(X).
			any :- iso(X).
			quiet(X) :- n(X), not any.
		`)
		db := algebra.DB{"n": value.NewSet(ints(1, 2, 3)...)}
		v, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		checkAgainstExecute(t, v, plan, db)
		db = step(t, v, plan, db, []datalog.Fact{fact("e", 1, 2), fact("e", 2, 3)}, nil)
		db = step(t, v, plan, db, []datalog.Fact{fact("e", 3, 1)}, nil)
		db = step(t, v, plan, db, nil, []datalog.Fact{fact("e", 1, 2)})
		step(t, v, plan, db, []datalog.Fact{fact("e", 1, 3)}, []datalog.Fact{fact("e", 2, 3), fact("e", 3, 1)})
	})
	t.Run("constants and repeated variables", func(t *testing.T) {
		plan := mustPlan(t, query.SemStratified, `
			loop(X) :- e(X, X).
			hub(Y) :- e(0, Y), e(Y, 0).
			tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
		`)
		db := algebra.DB{}
		v, err := New(plan, db, query.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		db = step(t, v, plan, db, []datalog.Fact{fact("e", 0, 1), fact("e", 1, 0), fact("e", 1, 1), fact("e", 1, 2), fact("e", 2, 0)}, nil)
		db = step(t, v, plan, db, []datalog.Fact{fact("e", 0, 0)}, []datalog.Fact{fact("e", 1, 0)})
		step(t, v, plan, db, nil, []datalog.Fact{fact("e", 1, 1), fact("e", 2, 0), fact("e", 0, 0)})
	})
}

// TestApplyDBGroupedMatchesFactByFact: applying a batch relation by relation
// is applying it fact by fact — deletions first, a fact in both lists ends up
// present, unknown relations are created by inserts and ignored by deletes,
// unary facts are scalars and the input database is left alone.
func TestApplyDBGroupedMatchesFactByFact(t *testing.T) {
	oneByOne := func(db algebra.DB, ins, del []datalog.Fact) algebra.DB {
		out := db.Clone()
		for _, f := range del {
			if s, ok := out[f.Pred]; ok {
				out[f.Pred] = s.Diff(value.NewSet(factElem(f)))
			}
		}
		for _, f := range ins {
			out[f.Pred] = out[f.Pred].Insert(factElem(f))
		}
		return out
	}
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mk := func() datalog.Fact {
			pred := []string{"a", "b", "c", "new"}[rng.Intn(4)]
			args := make([]int64, 1+rng.Intn(2))
			for i := range args {
				args[i] = int64(rng.Intn(6))
			}
			return fact(pred, args...)
		}
		db := algebra.DB{}
		for i := rng.Intn(40); i > 0; i-- {
			if f := mk(); f.Pred != "new" {
				db[f.Pred] = db[f.Pred].Insert(factElem(f))
			}
		}
		before := db.Clone()
		var ins, del []datalog.Fact
		for i := rng.Intn(8); i > 0; i-- {
			f := mk()
			ins = append(ins, f)
			if rng.Intn(3) == 0 {
				del = append(del, f) // in both lists
			}
			if rng.Intn(4) == 0 {
				ins = append(ins, f) // a duplicate
			}
		}
		for i := rng.Intn(8); i > 0; i-- {
			del = append(del, mk())
		}
		got, want := ApplyDB(db, ins, del), oneByOne(db, ins, del)
		if !reflect.DeepEqual(renderDB(got), renderDB(want)) {
			t.Fatalf("seed %d: grouped %v, fact by fact %v\n+%v -%v over %v", seed, renderDB(got), renderDB(want), ins, del, renderDB(before))
		}
		if !reflect.DeepEqual(renderDB(db), renderDB(before)) {
			t.Fatalf("seed %d: ApplyDB mutated its input", seed)
		}
	}
}

func renderDB(db algebra.DB) map[string]string {
	out := map[string]string{}
	for k, s := range db {
		out[k] = s.String()
	}
	return out
}

// BenchmarkLeafChurn and BenchmarkInteriorDelete are what `make bench-ivm`
// runs: the write workload's steady-state batch, and a delete that
// over-deletes a 64-row cone, over a 10^4-edge hierarchy.
func BenchmarkLeafChurn(b *testing.B) {
	plan, err := query.Compile(query.LangDatalog, query.SemStratified, reachProgram)
	if err != nil {
		b.Fatal(err)
	}
	v, err := New(plan, hierarchy(10_000), query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	leaves := func(i int) (fs []datalog.Fact) {
		for k := 0; k < 4; k++ {
			fs = append(fs, fact("e", int64(3+k), int64(4_000_000+4*i+k)))
		}
		return fs
	}
	if _, err := v.Apply(leaves(0), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if _, err := v.Apply(leaves(i), leaves(i-1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInteriorDelete(b *testing.B) {
	plan, err := query.Compile(query.LangDatalog, query.SemStratified, reachProgram)
	if err != nil {
		b.Fatal(err)
	}
	v, err := New(plan, hierarchy(10_000), query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cut := []datalog.Fact{fact("e", 1, gadgetRoot)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range [][2][]datalog.Fact{{nil, cut}, {cut, nil}} {
			if _, err := v.Apply(batch[0], batch[1]); err != nil {
				b.Fatal(fmt.Errorf("iteration %d: %w", i, err))
			}
		}
	}
}

// TestFreshViewReportsOnlyWhatChanges: the initial build's bookkeeping is
// dropped, not rendered — a fresh view's first Apply reports the batch's
// changes and nothing of the initial state, its Outcome is the from-scratch
// one, and both are what a recompute view answers.
func TestFreshViewReportsOnlyWhatChanges(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, reachProgram+`
		orphan(Y) :- e(X, Y), not r(X).
		e(0, 7).
	`)
	db := hierarchy(50)
	inc, err := New(plan, db, query.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := New(plan, db, query.Options{Budget: algebra.Budget{NoStreaming: true}})
	if err != nil {
		t.Fatalf("New(recompute): %v", err)
	}
	if inc.Mode() != ModeIncremental || rec.Mode() != ModeRecompute {
		t.Fatalf("modes %v, %v", inc.Mode(), rec.Mode())
	}
	checkAgainstExecute(t, inc, plan, db)
	ins := []datalog.Fact{fact("e", 3, 777)}
	got, err := inc.Apply(ins, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want, err := rec.Apply(ins, nil)
	if err != nil {
		t.Fatalf("recompute Apply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first delta of a fresh view\n got: %+v\nwant: %+v", got, want)
	}
	if n := len(got.Preds); n != 2 || len(got.Preds[0].Added) != 1 || len(got.Preds[1].Added) != 1 {
		t.Fatalf("first delta = %+v, want e(3, 777) and r(777) and nothing else", got)
	}
	checkAgainstExecute(t, inc, plan, ApplyDB(db, ins, nil))
}

// TestApplyIsCancelledInsideOneRule: one batch that makes a non-recursive
// product rule enumerate 10^9 combinations — a single rule execution, no unit
// boundary or worklist row for 10^9 join steps — ends with the interrupt's
// error soon after it fires, because the kernel polls it on its step counter.
func TestApplyIsCancelledInsideOneRule(t *testing.T) {
	plan := mustPlan(t, query.SemStratified, `p(X, Y, Z) :- a(X), a(Y), a(Z), X > Y, Y > Z, Z > X.`)
	stop := make(chan struct{})
	var opts query.Options
	opts.Budget.Interrupt = stop
	opts.Ground.MaxRules = 1 << 40 // only the interrupt can end it
	v, err := New(plan, nil, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ins []datalog.Fact
	for i := int64(0); i < 1000; i++ {
		ins = append(ins, fact("a", i))
	}
	time.AfterFunc(20*time.Millisecond, func() { close(stop) })
	start := time.Now()
	_, err = v.Apply(ins, nil)
	if took := time.Since(start); !errors.Is(err, algebra.ErrCanceled) || took > 5*time.Second {
		t.Fatalf("Apply returned %v after %s, want the interrupt's error within moments of 20ms", err, took)
	}
	if _, err := v.Outcome(); err == nil {
		t.Fatal("an interrupted batch leaves the view half-maintained: it must be poisoned")
	}
}
