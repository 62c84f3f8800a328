package query

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// The read workloads' algebra texts (benchmark/workloads.go), with the
// closure's sources and the points' constants fixed.
const (
	textReach4   = `ifp(s, union(select(e, \p -> p.1 in {1, 2, 3, 4}), map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`
	textTwoHop   = `map(select(product(e, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`
	textTriangle = `select(product(product(e, e), e), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1 and p.2.2 = p.1.1.1)`
	textPointOut = `select(e, \p -> p.1 = 7)`
	textPoint2   = `map(select(product(select(e, \p -> p.1 = 7), e), \p -> p.1.2 = p.2.1), \p -> p.2.2)`
	textPointIFP = `ifp(s, union({(7, 0)}, map(select(product(s, e), \p -> p.1.1 = p.2.1 and p.1.2 < 2), \p -> (p.2.2, p.1.2 + 1))))`
	textEqWin    = `def win = map(diff(e, product(map(e, \x -> x.1), win)), \x -> x.1); query win;`
)

// reference evaluates e on the reference evaluator.
func reference(e algebra.Expr, db algebra.DB, b algebra.Budget) (value.Set, error) {
	return algebra.NewReference(db, b).Eval(e)
}

// coreReference is an algebra= script's outcome on internal/core's reference
// loops (core.Eval with algebra.NewReference), assembled as Execute assembles
// a valid or inflationary one from internal/core.
func coreReference(t *testing.T, plan *Plan, db algebra.DB) *Outcome {
	t.Helper()
	merged := db.Clone()
	for k, v := range plan.Script.DB {
		merged[k] = v
	}
	res, err := core.Eval(algebra.NewReference, plan.Script.Program, merged, algebra.Budget{}, plan.Semantics == SemInflationary)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	out := &Outcome{Language: plan.Language, Semantics: plan.Semantics, WellDefined: true}
	out.Defs = defSets(plan.Script.Program, res.Lower, res.Upper)
	for _, d := range out.Defs {
		out.WellDefined = out.WellDefined && d.Undef.IsEmpty()
	}
	for _, q := range plan.Script.Queries {
		lower, err := res.QueryLower(q.Expr)
		if err != nil {
			t.Fatalf("reference: %s: %v", q.Src, err)
		}
		upper, err := res.QueryUpper(q.Expr)
		if err != nil {
			t.Fatalf("reference: %s: %v", q.Src, err)
		}
		out.Queries = append(out.Queries, QueryAnswer{Src: q.Src, Set: lower, Undef: upper.Diff(lower)})
	}
	return out
}

// withStats installs a fresh counter collector as the process default for
// the test.
func withStats(t *testing.T) *obsv.Stats {
	t.Helper()
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	t.Cleanup(func() { obsv.SetDefault(prev) })
	return stats
}

// algqText renders an outcome as cmd/algq -defs prints it.
func algqText(o *Outcome) string {
	var sb strings.Builder
	WriteAlgqText(&sb, o, true)
	return sb.String()
}

// TestScriptsOnTheKernel: algebra= scripts under valid run on the kernel and
// print what internal/core's reference prints — certain and undefined
// elements, defs and queries — or, outside the fragment, on internal/core,
// saying why.
func TestScriptsOnTheKernel(t *testing.T) {
	const win = `def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);`
	move := func(src string) algebra.DB {
		s, err := parse.ParseScript("rel move = " + src + ";")
		if err != nil {
			t.Fatal(err)
		}
		return s.DB
	}
	for _, c := range []struct {
		name, src string
		db        algebra.DB
		why, text string
	}{
		{"tc", `def tc = union(move, map(select(product(tc, move), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))); query tc;`,
			move(`{(a, b), (b, c), (c, d)}`), "", "tc = {(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}\n"},
		{"acyclic WIN", win + ` query win;`, move(`{(a, b), (b, c), (b, d)}`), "", "win = {b}\n"},
		{"the WIN 2-cycle", win + ` query win;`, move(`{(a, b), (b, a)}`), "", "win = {}  % undefined: {a, b}\n"},
		{"a def negating a lower def", `def reach = union(move, map(select(product(reach, move), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)));
			def acyclic = diff(map(move, \x -> (x.1, x.1)), reach);`,
			move(`{(a, b), (b, c), (c, a), (d, e)}`), "", "acyclic = {(d, d)}\n"},
		{"a query over defs", win + ` query map(select(product(win, move), \p -> p.1 = p.2.1), \p -> p.2.2);`,
			move(`{(a, b), (b, c), (c, d), (d, e), (d, a), (f, g), (g, f)}`), "", "= {a, c, e}  % undefined: {f, g}\n"},
		{"a flip", `def s = diff(move, flip(s));`, move(`{(a, b)}`), "flip", ""},
		{"a double subtrahend", `def s = diff(move, diff(move, s));`, move(`{(a, b)}`), "subtrahend", ""},
		{"a stored name", win + ` query win;`, algebra.DB{"move": move(`{(a, b)}`)["move"], "win": value.EmptySet}, "stored-name", ""},
		{"nested elements", `def firsts = map(move, \x -> x.1.1);`, move(`{((a, b), c)}`), "outside-fragment", "firsts = {a}\n"},
		{"heterogeneous elements", win + ` query win;`, move(`{(a, b), (b, c, d)}`), "shape", "win = {b}\n"},
		{"a scalar beside pairs", `def s = diff(move, select(move, \x -> x = (a, b)));`, move(`{(a, b), (b, c), c}`), "shape", "s = {c, (b, c)}\n"},
		{"a scalar beside 1-tuples", `def s = diff(move, select(move, \x -> x = (a,)));`, move(`{(a,), (b,), c}`), "shape", "s = {c, (b)}\n"},
	} {
		plan := mustCompile(t, LangAlgebraEq, SemValid, c.src)
		stats := withStats(t)
		served, err := Execute(plan, c.db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snap := stats.Snapshot()
		ref := coreReference(t, plan, c.db)
		engine := "kernel"
		if c.why != "" {
			engine = "core"
		}
		if snap["algebra.engine."+engine] != 1 || snap["algebra.fallback."+c.why] != btoi(c.why != "") || snap["core.valid.calls"] != btoi(c.why != "") {
			t.Errorf("%s: counters %v, want engine %s (%s)", c.name, snap, engine, c.why)
		}
		got, want := algqText(served), algqText(ref)
		if got != want {
			t.Errorf("%s: kernel\n%s\nreference\n%s", c.name, got, want)
		}
		if !strings.Contains(got, c.text) {
			t.Errorf("%s: printed\n%s\nwant a line %q", c.name, got, c.text)
		}
	}
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sameSet demands what reflect.DeepEqual demands of two sets — same elements,
// same kinds, same representation — and the same rendering. (Empty sets are
// only compared as such: the value path returns an empty set in more than one
// representation.)
func sameSet(t *testing.T, what string, got, want value.Set) {
	t.Helper()
	if got.IsEmpty() || want.IsEmpty() {
		if !got.IsEmpty() || !want.IsEmpty() {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: not deeply equal\n got: %v\nwant: %v", what, got, want)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: renders %s, want %s", what, got, want)
	}
}

// TestKernelMatchesValuePath: on every shape of the fragment the kernel's
// answer is the reference evaluator's, element for element and byte for byte;
// outside it, the value evaluator answers.
func TestKernelMatchesValuePath(t *testing.T) {
	set := func(src string) value.Set {
		e, err := parse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := algebra.Eval(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Components no other test interns: the kernel returns the interned copy of
	// a set-valued component, the value path the database's own.
	sets := algebra.DB{
		"g": set(`{(1, {7001, 7002}), (2, {7001, 7002}), (3, {7003}), (4, {})}`),
		"h": set(`{({7001, 7002}, x), ({7003}, y), ({}, z), ({7004}, w)}`),
	}
	const tc = `ifp(s, union(e, map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`
	for _, c := range []struct {
		name, src string
		db        algebra.DB
		kernel    bool
	}{
		{"a 2-way equi-join", textTwoHop, nil, true},
		{"a 3-way equi-join", `map(select(product(product(e, f), e), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1), \p -> (p.1.1.1, p.2.2))`, nil, true},
		{"the nested output shape", textTriangle, nil, true},
		{"a union of joins", `union(map(select(product(e, f), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)), select(product(f, e), \p -> p.1.1 = p.2.2 and p.1.2 = p.2.1))`, nil, false},
		{"a union of joins of one shape", `union(map(select(product(e, f), \p -> p.1.2 = p.2.1), \p -> (p.2.2, p.1.1)), map(select(product(f, e), \p -> p.1.1 = p.2.2), \p -> (p.1.2, p.2.1)))`, nil, true},
		{"a distributive closure", tc, nil, true},
		{"a closure from a literal", textReach4, nil, true},
		{"closures side by side", `map(select(product(` + tc + `, ` + tc + `), \p -> p.1.2 = p.2.1), \p -> (p.1, p.2.2, (p.1.1)))`, nil, true},
		{"a join on a set-valued component", `map(select(product(g, h), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2, p.2.1))`, sets, true},
		{"a key in a literal set", `select(product(g, h), \p -> p.1.2 = p.2.1 and p.2.1 in {{7003}, {}})`, sets, true},
		{"an empty relation", textTwoHop, algebra.DB{"e": value.EmptySet}, true},
		{"a cross product", `product(e, f)`, nil, false},
		{"a select over a cross product", `select(product(e, f), \p -> p.1.1 = 1)`, nil, false},
		{"a closure with no finite type", `ifp(s, union(f, select(product(s, e), \p -> p.1.2 = p.2.1)))`, nil, false},
	} {
		plan := mustCompile(t, LangIFPAlgebra, SemValid, c.src)
		if (plan.kernel != nil) != c.kernel {
			t.Fatalf("%s: compiled for the kernel %v (%s), want %v", c.name, plan.kernel != nil, plan.fallback, c.kernel)
		}
		for seed := 0; seed < 12; seed++ {
			db := c.db
			if db == nil {
				db = algebra.DB{"e": digraph(5+3*seed, 4+5*seed), "f": digraph(3+2*seed, 9+4*seed)}
			}
			got, errK := Execute(plan, db, Options{})
			want, errV := reference(plan.Expr, db, algebra.Budget{})
			if errK != nil || errV != nil {
				t.Fatalf("%s: kernel %v, reference %v", c.name, errK, errV)
			}
			sameSet(t, c.name, got.Set(), want)
			if c.db != nil {
				break
			}
		}
	}

	// An absent relation is the value evaluator's to report.
	plan := mustCompile(t, LangAlgebra, SemValid, textTwoHop)
	_, errK := Execute(plan, algebra.DB{"f": digraph(4, 4)}, Options{})
	_, errV := reference(plan.Expr, algebra.DB{}, algebra.Budget{})
	if errK == nil || errV == nil || errK.Error() != errV.Error() {
		t.Fatalf("an absent relation: kernel %v, reference %v", errK, errV)
	}
}

// TestSameErrorClassOnBothAlgebraEngines: budgets and interrupts end a kernel
// evaluation with the code they end a value evaluation with.
func TestSameErrorClassOnBothAlgebraEngines(t *testing.T) {
	db := algebra.DB{"e": digraph(200, 600)}
	fired := make(chan struct{})
	close(fired)
	for _, c := range []struct {
		name, src string
		budget    algebra.Budget
		code      string
	}{
		{"a result over MaxSetSize", textTwoHop, algebra.Budget{MaxSetSize: 100}, "budget-exceeded"},
		{"a fixpoint over MaxSetSize", textReach4, algebra.Budget{MaxSetSize: 100}, "budget-exceeded"},
		{"an interrupt", textTriangle, algebra.Budget{Interrupt: fired}, "canceled"},
		{"an interrupt in a fixpoint", textReach4, algebra.Budget{Interrupt: fired}, "canceled"},
	} {
		plan := mustCompile(t, LangIFPAlgebra, SemValid, c.src)
		rec := recordRel(t)
		_, errK := Execute(plan, db, Options{Budget: c.budget})
		_, errV := reference(plan.Expr, db, c.budget)
		if ErrorCode(errK, false) != c.code || ErrorCode(errV, false) != c.code {
			t.Errorf("%s: kernel %v, value %v, want both %s", c.name, errK, errV, c.code)
		}
		if evs := rec.take(); len(evs) != 1 || evs[0].Engine != "algebra" || c.code == "canceled" && evs[0].Steps > 1<<12 {
			t.Errorf("%s: kernel events %+v, want one, within 4 096 join steps when cancelled", c.name, evs)
		}
	}

	// Mid-join: the interrupt ends a join whose product is 10^9 rows.
	var dense []value.Value
	for i := int64(0); i < 1000; i++ {
		dense = append(dense, value.NewTuple(value.Int(i%10), value.Int(i)))
	}
	plan := mustCompile(t, LangAlgebra, SemValid, `select(product(product(e, e), e), \p -> p.1.1.1 = p.1.2.1 and p.1.2.1 = p.2.1)`)
	stop := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(stop) })
	start := time.Now()
	opts := Options{Budget: algebra.Budget{Interrupt: stop}}
	opts.Ground.MaxRules = 1 << 40
	_, err := Execute(plan, algebra.DB{"e": value.NewSet(dense...)}, opts)
	if took := time.Since(start); ErrorCode(err, false) != "canceled" || took > 5*time.Second {
		t.Fatalf("a cancelled kernel join returned %v after %s", err, took)
	}

	// MaxIFPIters counts the value path's rounds; the kernel's worklist has
	// none. A closure along a 40-edge chain takes 41 rounds: under a cap of 10
	// the value path gives up, the kernel answers, and what bounds its
	// recursive unit is the join-step budget.
	var chain []value.Value
	for i := int64(0); i < 40; i++ {
		chain = append(chain, value.NewTuple(value.Int(i), value.Int(i+1)))
	}
	cdb := algebra.DB{"e": value.NewSet(chain...)}
	closure := mustCompile(t, LangIFPAlgebra, SemValid, `ifp(s, union(e, map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`)
	capped := Options{Budget: algebra.Budget{MaxIFPIters: 10}}
	got, errK := Execute(closure, cdb, capped)
	_, errV := reference(closure.Expr, cdb, capped.Budget)
	if errK != nil || got.Set().Len() != 40*41/2 || !errors.Is(errV, algebra.ErrBudget) {
		t.Fatalf("under MaxIFPIters 10: kernel %v (%d pairs), value %v", errK, got.Set().Len(), errV)
	}
	capped.Ground.MaxRules = 500
	if _, errK = Execute(closure, cdb, capped); ErrorCode(errK, false) != "budget-exceeded" {
		t.Fatalf("under MaxRules 500: kernel %v", errK)
	}
}

// TestKernelPlanConcurrent: one cached plan runs from many goroutines over one
// shared fact base.
func TestKernelPlanConcurrent(t *testing.T) {
	base := rel.NewBase(algebra.DB{"e": digraph(300, 900)})
	for _, src := range []string{textReach4, textTwoHop, textTriangle} {
		plan := mustCompile(t, LangIFPAlgebra, SemValid, src)
		want, err := ExecuteBase(plan, base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got, err := ExecuteBase(plan, base, Options{})
					if err != nil || got.Set().String() != want.Set().String() {
						t.Errorf("%s: %v", src, err)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestKernelCountsRepeat: a served read workload class is one kernel
// evaluation that streams nothing, takes the same join steps every time, and
// leaves nothing behind in the intern arena.
func TestKernelCountsRepeat(t *testing.T) {
	base := rel.NewBase(algebra.DB{"e": digraph(1000, 2000)})
	for _, src := range []string{textReach4, textTwoHop, textTriangle} {
		plan := mustCompile(t, LangIFPAlgebra, SemValid, src)
		var first obsv.Snapshot
		var ids int
		for i := 0; i < 100; i++ {
			stats := withStats(t)
			if _, err := ExecuteBase(plan, base, Options{}); err != nil {
				t.Fatal(err)
			}
			snap := stats.Snapshot()
			delete(snap, "rel.base.hits")
			delete(snap, "rel.base.misses")
			delete(snap, "rel.base.rows")
			delete(snap, "rel.base.indexes")
			switch i {
			case 0:
				if snap["algebra.engine.kernel"] != 1 || snap["rel.evals.algebra"] != 1 || snap["stream.scanned"] != 0 || snap["stream.pipelines"] != 0 {
					t.Fatalf("%s: counters %v", src, snap)
				}
				ids = intern.Global().Len()
			case 1:
				first = snap
			default:
				if !reflect.DeepEqual(snap, first) {
					t.Fatalf("%s: counters do not repeat\n%v\n%v", src, first, snap)
				}
			}
		}
		if n := intern.Global().Len(); n != ids {
			t.Fatalf("%s: the intern arena grew by %d over 99 evaluations", src, n-ids)
		}
	}
}

// The read workload's graph: 10 000 nodes, 20 000 edges.
func g20k() *rel.Base { return rel.NewBase(algebra.DB{"e": digraph(10000, 20000)}) }

var benchClasses = []struct{ name, src string }{{"2hop", textTwoHop}, {"triangle", textTriangle}, {"reach4", textReach4}}

// BenchmarkAlgebraKernel: alg-read's classes on the kernel, over a shared fact
// base as the server evaluates them — the answer converted to a set and
// rendered, as a response renders it.
func BenchmarkAlgebraKernel(b *testing.B) {
	base := g20k()
	for _, c := range benchClasses {
		plan, err := Compile(LangIFPAlgebra, SemValid, c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := ExecuteBase(plan, base, Options{})
				if err != nil {
					b.Fatal(err)
				}
				_ = out.Set().String()
			}
		})
	}
}

// BenchmarkAlgebraValue: the same plans on the value evaluator — planned, as
// before the kernel, and on the reference (algebra.NewReference) where it
// fits the budget; a reference leg that exceeds it is skipped with the
// budget's error.
func BenchmarkAlgebraValue(b *testing.B) {
	db := g20k().DB()
	for _, c := range benchClasses {
		e, err := parse.ParseExpr(c.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, ref := range []bool{false, true} {
			name, newEval := c.name+"/planned", algebra.NewEvaluator
			if ref {
				name, newEval = c.name+"/reference", algebra.NewReference
			}
			b.Run(name, func(b *testing.B) {
				if ref && c.name == "triangle" {
					b.Skip("the materialized 20 000 x 20 000 product exceeds MaxSetSize")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := newEval(db, algebra.Budget{}).Eval(e)
					if ref && errors.Is(err, algebra.ErrBudget) {
						b.Skipf("the materialized reference does not fit the budget: %v", err)
					}
					if err != nil {
						b.Fatal(err)
					}
					_ = s.String()
				}
			})
		}
	}
}

// twoHopAnswer evaluates alg-2hop on the read workload's graph on the
// kernel and returns its answer, the engine and the answer's rows — about
// 40 000 pairs.
func twoHopAnswer(tb testing.TB) (*answer, *rel.Engine, []intern.ID) {
	plan, err := Compile(LangAlgebra, SemValid, textTwoHop)
	if err != nil {
		tb.Fatal(err)
	}
	k := plan.kernel
	eng, err := rel.NewEngine(k.prog, rel.Config{Base: g20k(), Limits: KernelLimits(Options{})})
	if err == nil {
		err = eng.Build()
	}
	if err != nil {
		tb.Fatal(err)
	}
	var rows []intern.ID
	a := &k.answers[0]
	eng.EachMember(a.pred, false, func(row []intern.ID) { rows = append(rows, row...) })
	return a, eng, rows
}

// BenchmarkKernelConvert: alg-2hop's answer on the read workload's graph
// converted from the kernel's rows to its set, and the set rendered, as a
// response renders it.
func BenchmarkKernelConvert(b *testing.B) {
	a, _, rows := twoHopAnswer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := a.toSet(rows, algebra.Budget{}.Stop)
		if err != nil {
			b.Fatal(err)
		}
		_ = set.String()
	}
}

// textSink keeps the compiler from dropping BenchmarkKernelText's string.
var textSink string

// BenchmarkKernelText: the same answer ordered and written from its rows as
// a response writes it, without building its set.
func BenchmarkKernelText(b *testing.B) {
	a, _, rows := twoHopAnswer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, err := a.appendText(nil, rows, rel.OrderRows(rows, a.width), algebra.Budget{}.Stop)
		if err != nil {
			b.Fatal(err)
		}
		textSink = string(text)
	}
}

// TestCanceledInsideConversion: converting an answer's rows to its set, or
// writing them as text, polls the budget's interrupt every convertPoll
// elements, so an interrupt that fires once the kernel has evaluated still
// ends the request as canceled, within that many elements.
func TestCanceledInsideConversion(t *testing.T) {
	a, eng, rows := twoHopAnswer(t)
	if len(rows)/a.width <= convertPoll {
		t.Fatalf("the answer has %d elements, want more than %d", len(rows)/a.width, convertPoll)
	}
	fired := make(chan struct{})
	close(fired)
	if _, err := a.set(eng, false, algebra.Budget{Interrupt: fired}); ErrorCode(err, false) != "canceled" {
		t.Errorf("a fired interrupt: conversion returned %v, want canceled", err)
	}
	// The interrupt fires after the first poll, inside the build.
	polls := 0
	_, err := a.toSet(rows, func() error {
		if polls++; polls == 1 {
			return nil
		}
		return algebra.Budget{Interrupt: fired}.Stop()
	})
	if ErrorCode(err, false) != "canceled" || polls != 2 {
		t.Errorf("an interrupt inside the build: %v after %d polls, want canceled after 2", err, polls)
	}
	if set, err := a.set(eng, false, algebra.Budget{}); err != nil || set.Len() != len(rows)/a.width {
		t.Errorf("no interrupt: %d elements, %v; want %d", set.Len(), err, len(rows)/a.width)
	}

	// The same two interrupts end the writer.
	order := rel.OrderRows(rows, a.width)
	if _, err := a.appendText(nil, rows, order, algebra.Budget{Interrupt: fired}.Stop); ErrorCode(err, false) != "canceled" {
		t.Errorf("a fired interrupt: the writer returned %v, want canceled", err)
	}
	polls = 0
	_, err = a.appendText(nil, rows, order, func() error {
		if polls++; polls == 1 {
			return nil
		}
		return algebra.Budget{Interrupt: fired}.Stop()
	})
	if ErrorCode(err, false) != "canceled" || polls != 2 {
		t.Errorf("an interrupt inside the writer: %v after %d polls, want canceled after 2", err, polls)
	}
}
