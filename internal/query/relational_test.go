package query

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

func ints(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.Int(v)
	}
	return out
}

func pairs(ps ...[2]int64) value.Set {
	elems := make([]value.Value, len(ps))
	for i, p := range ps {
		elems[i] = value.NewTuple(value.Int(p[0]), value.Int(p[1]))
	}
	return value.NewSet(elems...)
}

// relEvents holds the RelStats events recordRel's collector received.
type relEvents struct {
	mu  sync.Mutex
	evs []obsv.RelStats
}

func (r *relEvents) take() []obsv.RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.evs
	r.evs = nil
	return evs
}

// recordRel installs a collector recording RelStats events as the process
// default for the test and returns what it records.
func recordRel(t *testing.T) *relEvents {
	t.Helper()
	rec := &relEvents{}
	prev := obsv.Default()
	obsv.SetDefault(obsv.Func(func(e obsv.Event) {
		if s, ok := e.(obsv.RelStats); ok {
			rec.mu.Lock()
			defer rec.mu.Unlock()
			rec.evs = append(rec.evs, s)
		}
	}))
	t.Cleanup(func() { obsv.SetDefault(prev) })
	return rec
}

// shape is one program over one database.
type shape struct {
	name, src string
	db        algebra.DB
}

// The shapes the relational engine must not lose, each over a database.
var relationalShapes = []shape{
	{"a predicate both stored and derived", `
		r(Y) :- r(X), e(X, Y).
		both(X) :- r(X), e(X, X).`,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 3}), "r": value.NewSet(ints(1)...)}},
	{"several arities under one predicate name", `
		one(X) :- d(X).
		two(X, Y) :- d(X, Y).
		both(X) :- d(X), d(X, Y).
		d(8, 8, 8) :- d(8).`,
		algebra.DB{"d": value.NewSet(value.Int(1), value.Int(8), value.NewTuple(ints(1, 7)...), value.NewTuple(ints(4, 5, 6)...), value.NewTuple(ints(9)...))}},
	{"program facts beside database facts", `
		e(1, 2). e(7, 8). r(2). n.
		r(Y) :- r(X), e(X, Y).
		any :- r(X), n.`,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}), "r": value.NewSet(ints(1)...), "unrelated": value.NewSet(value.String("x"))}},
	{"a negated lower-stratum literal", `
		b(X) :- e(X, Y).
		iso(X) :- n(X), not b(X).
		any :- iso(X).
		quiet(X) :- n(X), not any.`,
		algebra.DB{"n": value.NewSet(ints(1, 2, 3, 4)...), "e": pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1})}},
	{"computed head arguments", `
		cnt(succ(X)) :- cnt(X), ok(X).
		twice(times(X, 2), X) :- ok(X), X < 3.
		shift(plus(X, Y)) :- e(X, Y), Z = plus(X, 1), Z != Y.`,
		algebra.DB{"cnt": value.NewSet(ints(0)...), "ok": value.NewSet(ints(0, 1, 2, 3, 5)...), "e": pairs([2]int64{1, 2}, [2]int64{2, 5})}},
	{"an empty database", `
		e(a, b). e(b, c).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
		lonely(X) :- e(X, Y), not tc(Y, X).`,
		nil},
}

// The shapes of negation through recursion: no stratified reading, a
// three-valued valid / well-founded one.
var threeValuedShapes = []shape{
	{"win on an odd cycle: everything undefined", winProgram,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1})}},
	{"win with a draw tail", winProgram,
		algebra.DB{"e": pairs([2]int64{1, 1}, [2]int64{2, 1}, [2]int64{3, 2}, [2]int64{3, 4}, [2]int64{4, 5}, [2]int64{5, 6}, [2]int64{6, 7}, [2]int64{8, 7})}},
	{"p :- not p beside program facts", `
		q(1). q(5).
		q(X) :- d(X), not q(X).
		seen(X) :- q(X).`,
		algebra.DB{"d": value.NewSet(ints(1, 2, 3)...)}},
	{"negation through positive recursion", `
		s(X, Y) :- e(X, Y), not q(Y).
		s(X, Z) :- s(X, Y), e(Y, Z).
		q(X) :- s(X, X), d(X).`,
		algebra.DB{"d": value.NewSet(ints(1, 3, 4)...),
			"e": pairs([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{2, 3}, [2]int64{3, 4}, [2]int64{4, 3}, [2]int64{1, 3}, [2]int64{4, 5}, [2]int64{5, 1})}},
	{"a three-valued unit read negatively from above", winProgram + `
		lose(X) :- node(X), not win(X).
		node(X) :- e(X, Y). node(Y) :- e(X, Y).
		settled(X) :- node(X), not drawn(X).
		drawn(X) :- node(X), not win(X), not lose(X).`,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{2, 3}, [2]int64{3, 4}, [2]int64{5, 4})}},
	{"stored and derived under one name", winProgram + " win(7).",
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{3, 9}, [2]int64{4, 7}, [2]int64{5, 4}),
			"win": value.NewSet(value.Int(9), value.NewTuple(ints(1, 2)...))}},
	{"two components alternating one above the other", `
		a(X) :- e(X, Y), not a(Y).
		b(X) :- e(X, Y), a(Y), not b(Y).
		b(X) :- e(Y, X), not a(X), not b(Y).`,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4}, [2]int64{4, 2}, [2]int64{5, 1}, [2]int64{6, 5})}},
	{"an even negative cycle", `
		p(X) :- d(X), not q(X).
		q(X) :- d(X), not p(X).
		q(1).`,
		algebra.DB{"d": value.NewSet(ints(1, 2)...)}},
	{"an empty database", `
		move(a, a). move(a, b). move(b, c). move(c, d).
		win(X) :- move(X, Y), not win(Y).`,
		nil},
	// A database may store a relation under the name the engine keeps win's
	// possible rows under: it is no part of win.
	{"a stored relation named like the possible half", winProgram,
		algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}), "win?": value.NewSet(ints(3, 4)...)}},
	{"a random game", winProgram, algebra.DB{"e": digraph(300, 500)}},
}

// TestRelationalMatchesGrounded: on every shape, under every semantics that
// reads the program relationally, Execute's outcome is bit for bit the
// grounded evaluation's — predicate order, key order, the undefined facts,
// IDB, WellDefined — whether the base is made for the call or shared, and the
// event says which engine ran.
func TestRelationalMatchesGrounded(t *testing.T) {
	rec := recordRel(t)
	wingame, err := os.ReadFile("../../cmd/dlog/testdata/wingame.dlog")
	if err != nil {
		t.Fatal(err)
	}
	shapes := append(relationalShapes[:len(relationalShapes):len(relationalShapes)], threeValuedShapes...)
	shapes = append(shapes, shape{name: "cmd/dlog's wingame.dlog", src: string(wingame)})
	for i, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			base := rel.NewBase(shape.db)
			sems := []Semantics{SemStratified, SemValid, SemWellFounded}
			if i >= len(relationalShapes) {
				sems = sems[1:]
			}
			for _, sem := range sems {
				plan := mustCompile(t, LangDatalog, sem, shape.src)
				if !RelationalOK(plan) {
					t.Fatalf("%s: not in the relational fragment", sem)
				}
				want, err := ExecuteGrounded(plan, shape.db, Options{})
				if err != nil {
					t.Fatalf("%s grounded: %v", sem, err)
				}
				rec.take()
				for round, run := range []func() (*Outcome, error){
					func() (*Outcome, error) { return Execute(plan, shape.db, Options{}) },
					func() (*Outcome, error) { return ExecuteBase(plan, base, Options{}) },
					func() (*Outcome, error) { return ExecuteBase(plan, base, Options{}) },
				} {
					got, err := run()
					if err != nil {
						t.Fatalf("%s round %d: %v", sem, round, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d diverged\n got: %+v\nwant: %+v", sem, round, got.Datalog, want.Datalog)
					}
				}
				evs := rec.take()
				if len(evs) != 3 || evs[0].Engine != "relational" || evs[0].Fallback != "" {
					t.Fatalf("%s: events %+v", sem, evs)
				}
				if last := evs[2]; !last.BaseHit && len(shape.db) > 0 {
					t.Errorf("%s: the third request on one base still derived from the database: %+v", sem, last)
				}
			}
		})
	}
}

// TestEngineChoice is the routing table: which engine answers a plan is a
// function of its language, its semantics and the fragment its source (and,
// for algebra, the database's shapes) falls in, and every evaluation says
// which on the counters — algebra.engine.* and algebra.fallback.* for an
// algebra request, rel.evals.* and rel.fallbacks.* for every evaluation the
// rule kernel or the grounder makes. docs/architecture.md's decision tables
// list the same rows.
func TestEngineChoice(t *testing.T) {
	const tc = "e(1, 2). tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."
	const neg = "e(1, 2). n(1). n(3). iso(X) :- n(X), not e(X, 2)."
	const win = "e(1, 2). e(2, 1). e(2, 3). win(X) :- e(X, Y), not win(Y)."
	small := algebra.DB{"e": digraph(40, 120)}
	mixed := algebra.DB{"e": small["e"].Insert(value.Int(3))}
	tiny := algebra.DB{"e": value.NewSet(value.NewTuple(ints(1, 2)...), value.NewTuple(ints(2, 3)...))}
	for _, c := range []struct {
		lang     Language
		sem      Semantics
		fragment string
		src      string
		db       algebra.DB
		engine   string
		why      string // the fallback's reason; "" when the plan's own engine answers
		code     string // ErrorCode of a failing evaluation; "" when it succeeds
	}{
		{LangDatalog, SemStratified, "stratified", tc, nil, "relational", "", ""},
		{LangDatalog, SemMinimal, "negation-free", tc, nil, "relational", "", ""},
		{LangDatalog, SemMinimal, "negation (the semantics rejects it)", neg, nil, "grounded", "unstratified", "eval-error"},
		{LangDatalog, SemValid, "stratified", neg, nil, "relational", "", ""},
		{LangDatalog, SemWellFounded, "stratified", neg, nil, "relational", "", ""},
		{LangDatalog, SemValid, "negation through recursion", win, nil, "relational", "", ""},
		{LangDatalog, SemWellFounded, "negation through recursion", win, nil, "relational", "", ""},
		{LangDatalog, SemInflationary, "any", tc, nil, "grounded", "semantics", ""},
		{LangDatalog, SemStable, "any", win, nil, "grounded", "semantics", ""},
		{LangDatalog, SemValid, "a rule with no join order", "p(X) :- not q(X).", nil, "grounded", "unplannable rule", "eval-error"},
		{LangIFPAlgebra, SemValid, "flat join: ifp-reach4", textReach4, small, "kernel", "", ""},
		{LangAlgebra, SemValid, "flat join: alg-2hop", textTwoHop, small, "kernel", "", ""},
		{LangAlgebra, SemValid, "flat join: alg-triangle", textTriangle, small, "kernel", "", ""},
		{LangAlgebra, SemValid, "flat join over pairs and scalars", textTwoHop, mixed, "value", "shape", "eval-error"},
		{LangAlgebra, SemValid, "flat join over an empty relation", textTwoHop, algebra.DB{"e": value.EmptySet}, "kernel", "", ""},
		{LangIFPAlgebra, SemValid, "point: pt-out", textPointOut, small, "value", "point", ""},
		{LangIFPAlgebra, SemValid, "point: pt-2hop", textPoint2, small, "value", "point", ""},
		{LangIFPAlgebra, SemValid, "arithmetic: pt-ifp", textPointIFP, small, "value", "outside-fragment", ""},
		{LangAlgebraEq, SemValid, "flat: eq-win", textEqWin, small, "kernel", "", ""},
		{LangAlgebraEq, SemValid, "a relation of other widths", textEqWin, algebra.DB{"e": value.NewSet(value.NewTuple(ints(1, 2)...), value.NewTuple(ints(2, 3, 4)...))}, "core", "shape", ""},
		{LangAlgebraEq, SemValid, "a def's name stored too", textEqWin, algebra.DB{"e": small["e"], "win": value.EmptySet}, "core", "stored-name", ""},
		{LangAlgebraEq, SemValid, "a projection into a nested component", `def firsts = map(e, \x -> x.1.1);`, algebra.DB{"e": value.NewSet(value.NewTuple(value.NewTuple(ints(1, 2)...), value.Int(3)))}, "core", "outside-fragment", ""},
		{LangAlgebraEq, SemValid, "a flip", `def s = diff(e, flip(s));`, small, "core", "flip", ""},
		{LangAlgebraEq, SemValid, "a diff inside a subtrahend", `def s = diff(e, diff(e, s));`, small, "core", "subtrahend", ""},
		{LangAlgebraEq, SemInflationary, "any", textEqWin, tiny, "core", "semantics", ""},
		{LangAlgebraEq, SemWellFounded, "any", textEqWin, tiny, "grounded", "semantics", ""},
		{LangAlgebraEq, SemStable, "any", textEqWin, tiny, "grounded", "semantics", ""},
	} {
		name := fmt.Sprintf("%s %s over %s", c.lang, c.sem, c.fragment)
		plan := mustCompile(t, c.lang, c.sem, c.src)
		stats := withStats(t)
		_, err := Execute(plan, c.db, Options{})
		if code := ErrorCode(err, false); err != nil && code != c.code || err == nil && c.code != "" {
			t.Errorf("%s: %v (%s), want %q", name, err, code, c.code)
		}
		got := obsv.Snapshot{}
		for k, v := range stats.Snapshot() {
			for _, prefix := range []string{"algebra.engine.", "algebra.fallback.", "rel.evals.", "rel.fallbacks."} {
				if strings.HasPrefix(k, prefix) {
					got[k] = v
				}
			}
		}
		engines, fallbacks := "rel.evals.", "rel.fallbacks."
		if c.lang != LangDatalog {
			engines, fallbacks = "algebra.engine.", "algebra.fallback."
		}
		want := obsv.Snapshot{engines + c.engine: 1}
		if c.why != "" {
			want[fallbacks+c.why] = 1
		}
		if c.lang != LangDatalog && c.engine == "kernel" {
			want["rel.evals.algebra"] = 1 // the kernel's own event
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters %v, want %v", name, got, want)
		}
		if c.lang == LangDatalog && RelationalOK(plan) != (c.engine == "relational") {
			t.Errorf("%s: RelationalOK = %v", name, RelationalOK(plan))
		}
	}

	// Negation through recursion grounds nothing, and the counters say how it
	// was evaluated instead.
	stats := withStats(t)
	for _, sem := range []Semantics{SemValid, SemWellFounded} {
		if _, err := Execute(mustCompile(t, LangDatalog, sem, win), nil, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if snap := stats.Snapshot(); snap["ground.rules"] != 0 || snap["rel.evals.relational"] != 2 || snap["rel.units.alternating"] != 2 || snap["rel.flips"] == 0 {
		t.Errorf("win under valid and wellfounded: counters %v", snap)
	}
	// A game with no move takes no join step and alternates all the same.
	stats = withStats(t)
	_, err := Execute(mustCompile(t, LangDatalog, SemValid, "win(X) :- e(X, Y), not win(Y)."), nil, Options{})
	if snap := stats.Snapshot(); err != nil || snap["rel.units.alternating"] != 1 || snap["rel.alternations"] != 1 || snap["rel.flips"] != 0 {
		t.Errorf("win over no moves: %v, counters %v", err, snap)
	}
}

// TestGroundedPathSharesBaseKeys: on the grounded path too, a predicate the
// program does not add to is reported with the base's keys — and that is
// exactly what the interpretation holds for it, under every semantics: the
// outcome over a database equals the outcome of the same program with the
// database's facts written into it (where every predicate is the program's).
func TestGroundedPathSharesBaseKeys(t *testing.T) {
	db := algebra.DB{
		"e":   pairs([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{2, 3}, [2]int64{4, 4}),
		"z":   value.NewSet(value.Int(3), value.NewTuple(ints(1, 2, 3)...)), // the program never mentions it
		"win": value.NewSet(ints(9)...),                                     // stored and derived
	}
	const src = `win(X) :- e(X, Y), not win(Y). odd(X) :- e(X, X), not none(X), not e(X, 9).`
	inlined := src
	for _, f := range DBFacts(db) {
		inlined += " " + f.Key() + "."
	}
	base := rel.NewBase(db)
	for _, sem := range []Semantics{SemValid, SemWellFounded, SemInflationary, SemStable} {
		want, err := Execute(mustCompile(t, LangDatalog, sem, inlined), nil, Options{})
		if err != nil {
			t.Fatalf("%s inlined: %v", sem, err)
		}
		got, err := ExecuteBase(mustCompile(t, LangDatalog, sem, src), base, Options{})
		if err != nil {
			t.Fatalf("%s over the base: %v", sem, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged\n got: %+v %+v\nwant: %+v %+v", sem, got.Datalog, got.DatalogModels, want.Datalog, want.DatalogModels)
		}
	}
	var use rel.BaseUse
	plan := mustCompile(t, LangDatalog, SemInflationary, src)
	got, _ := ExecuteBase(plan, base, Options{})
	for _, pf := range got.Datalog.Preds {
		if keys, _ := base.Keys("e", &use); pf.Pred == "e" && &pf.True[0] != &keys[0] {
			t.Fatal("e's keys must be the base's own slice, not a copy")
		}
	}
}

// TestSameErrorClassOnBothEngines: budgets, interrupts and evaluation errors
// of interpreted functions are classified alike whichever engine ran.
func TestSameErrorClassOnBothEngines(t *testing.T) {
	fired := make(chan struct{})
	close(fired)
	var budget, cancel1, cancel2, steps Options
	budget.Ground.MaxAtoms = 3
	steps.Ground.MaxRules = 2
	cancel1.Ground.Interrupt = fired
	cancel2.Budget.Interrupt = fired
	for _, c := range []struct {
		name, src string
		db        algebra.DB
		opts      Options
		code      string
	}{
		{"possible facts over MaxAtoms", winProgram, algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1})}, budget, "budget-exceeded"},
		{"an alternation over MaxRules", winProgram, algebra.DB{"e": pairs([2]int64{1, 2}, [2]int64{2, 3})}, steps, "budget-exceeded"},
		{"Ground.Interrupt before an alternation", winProgram, algebra.DB{"e": pairs([2]int64{1, 2})}, cancel1, "canceled"},
		{"a type error under negation through recursion", "p(X) :- d(X), succ(X) < 3, not p(X).", algebra.DB{"d": value.NewSet(value.String("a"), value.Int(1))}, Options{}, "eval-error"},
		{"stored facts over MaxAtoms", "p(X) :- d(X).", algebra.DB{"d": value.NewSet(ints(1, 2, 3, 4)...)}, budget, "budget-exceeded"},
		{"derived facts over MaxAtoms", "d(1). d(2). p(X, Y) :- d(X), d(Y).", nil, budget, "budget-exceeded"},
		{"work over MaxRules", "d(1). d(2). d(3). p(X, Y) :- d(X), d(Y).", nil, steps, "budget-exceeded"},
		{"a divergent program", "n(0). n(Y) :- n(X), Y = succ(X).", nil, Options{Ground: budget.Ground}, "budget-exceeded"},
		{"Ground.Interrupt", "d(1). p(X) :- d(X).", nil, cancel1, "canceled"},
		{"Budget.Interrupt", "d(1). p(X) :- d(X).", nil, cancel2, "canceled"},
		{"a type error in a function", "p(Y) :- d(X), Y = plus(X, 1).", algebra.DB{"d": value.NewSet(value.String("a"))}, Options{}, "eval-error"},
		{"a type error in a head", "p(plus(X, 1)) :- d(X).", algebra.DB{"d": value.NewSet(value.String("a"))}, Options{}, "eval-error"},
		{"a type error in a comparison", "p(X) :- d(X), succ(X) < 3.", algebra.DB{"d": value.NewSet(value.String("a"), value.Int(1))}, Options{}, "eval-error"},
	} {
		sem := SemStratified
		if c.src == winProgram || c.name == "a type error under negation through recursion" {
			sem = SemWellFounded
		}
		plan := mustCompile(t, LangDatalog, sem, c.src)
		if !RelationalOK(plan) {
			t.Fatalf("%s: not in the relational fragment", c.name)
		}
		_, errR := Execute(plan, c.db, c.opts)
		_, errG := ExecuteGrounded(plan, c.db, c.opts)
		if c.name == "Budget.Interrupt" {
			// The grounder only knows its own channel; the relational path
			// honours both.
			errG = errR
		}
		if errR == nil || errG == nil || ErrorCode(errR, false) != c.code || ErrorCode(errG, false) != c.code {
			t.Errorf("%s: relational %v, grounded %v, want both %s", c.name, errR, errG, c.code)
		}
	}
}

// TestExecuteIsCancelledInsideOneRule: a product rule is one rule execution;
// the interrupt ends it after at most a few thousand join steps, not after
// the product.
func TestExecuteIsCancelledInsideOneRule(t *testing.T) {
	var as []value.Value
	for i := int64(0); i < 1000; i++ {
		as = append(as, value.Int(i))
	}
	db := algebra.DB{"a": value.NewSet(as...)}
	plan := mustCompile(t, LangDatalog, SemStratified, `p(X, Y, Z) :- a(X), a(Y), a(Z), X > Y, Y > Z, Z > X.`)
	stop := make(chan struct{})
	var opts Options
	opts.Ground.Interrupt = stop
	opts.Ground.MaxRules = 1 << 40 // only the interrupt can end it
	time.AfterFunc(20*time.Millisecond, func() { close(stop) })
	start := time.Now()
	_, err := Execute(plan, db, opts)
	if took := time.Since(start); ErrorCode(err, false) != "canceled" || took > 5*time.Second {
		t.Fatalf("Execute returned %v after %s, want canceled within moments of 20ms", err, took)
	}
}

// TestThreeValuedOnRandomGraphs: the diffcheck oracle draws random programs
// over a handful of constants; this is its complement — fixed programs whose
// halves are recursive, stacked or read from above, over random graphs large
// enough for alternations many rounds deep and over-deletions that re-derive.
func TestThreeValuedOnRandomGraphs(t *testing.T) {
	progs := []string{
		winProgram,
		`s(X, Y) :- e(X, Y), not q(Y). s(X, Z) :- s(X, Y), e(Y, Z). q(X) :- s(X, X), d(X).`,
		`a(X) :- e(X, Y), not a(Y). b(X) :- e(X, Y), a(Y), not b(Y). b(X) :- e(Y, X), not a(X), not b(Y).
		 c(X) :- d(X), not b(X), not a(X). t(X, Y) :- e(X, Y), not c(X). t(X, Z) :- t(X, Y), t(Y, Z).`,
		`r(X, Y) :- e(X, Y). r(X, Z) :- r(X, Y), e(Y, Z), not blocked(Z). blocked(X) :- d(X), r(X, X).
		 safe(X) :- e(X, Y), not blocked(X), not r(Y, X).`,
		`even(X) :- d(X), not odd(X). odd(Y) :- even(X), e(X, Y). odd(Y) :- odd(X), e(X, Y), not even(Y).`,
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(25)
		var es, ds []value.Value
		for i := rng.Intn(3 * n); i > 0; i-- {
			es = append(es, value.NewTuple(ints(int64(rng.Intn(n)), int64(rng.Intn(n)))...))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				ds = append(ds, value.Int(int64(i)))
			}
		}
		db := algebra.DB{"e": value.NewSet(es...), "d": value.NewSet(ds...)}
		for pi, src := range progs {
			plan := mustCompile(t, LangDatalog, SemWellFounded, src)
			want, errG := ExecuteGrounded(plan, db, Options{})
			got, errR := Execute(plan, db, Options{})
			if errG != nil || errR != nil {
				t.Fatalf("graph %d, program %d: grounded %v, relational %v", iter, pi, errG, errR)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d, program %d diverged over %v\n got: %+v\nwant: %+v", iter, pi, db, got.Datalog, want.Datalog)
			}
		}
	}
}

// TestAlternationWorkFollowsFlips: on a simple path every position is settled
// by the one after it, so the alternation takes as many turns as the path has
// nodes, each flipping one row. Started from the turn before, a turn costs what
// it flips; closed again from scratch, a turn would cost the path, and the
// evaluation its square.
func TestAlternationWorkFollowsFlips(t *testing.T) {
	const n = 2000
	path := make([]value.Value, 0, n-1)
	for i := int64(1); i < n; i++ {
		path = append(path, value.NewTuple(ints(i, i+1)...))
	}
	db := algebra.DB{"e": value.NewSet(path...)}
	plan := mustCompile(t, LangDatalog, SemWellFounded, winProgram)
	rec := recordRel(t)
	var first obsv.RelStats
	for round := 0; round < 2; round++ {
		out, err := Execute(plan, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if won := out.Datalog.Preds[1]; won.Pred != "win" || len(won.True) != n/2 || len(won.Undef) != 0 || !out.WellDefined {
			t.Fatalf("win on a path of %d: %d won, %d undefined", n, len(won.True), len(won.Undef))
		}
		ev := rec.take()[0]
		if len(ev.Units) != 1 || ev.Units[0].Alternations < n/2-1 || ev.Steps > 10*n {
			t.Fatalf("%d join steps over %+v, want at most %d over about %d alternations", ev.Steps, ev.Units, 10*n, n/2)
		}
		if round == 0 {
			first = ev
		} else if !reflect.DeepEqual(ev, first) {
			t.Fatalf("the counts do not repeat:\n%+v\n%+v", first, ev)
		}
	}
}

// TestTimeoutInsideAlternation: an alternation is one component's evaluation;
// the interrupt ends it between two turns or inside one, not after it.
func TestTimeoutInsideAlternation(t *testing.T) {
	const n = 100000
	path := make([]value.Value, 0, n-1)
	for i := int64(1); i < n; i++ {
		path = append(path, value.NewTuple(ints(i, i+1)...))
	}
	base := rel.NewBase(algebra.DB{"e": value.NewSet(path...)})
	plan := mustCompile(t, LangDatalog, SemValid, winProgram)
	var opts Options
	opts.Ground.MaxRules = 1 << 40 // only the interrupt can end it
	var uncancelled time.Duration
	for round := 0; round < 2; round++ { // the first one also builds the base's tables
		whole := time.Now()
		if _, err := ExecuteBase(plan, base, opts); err != nil {
			t.Fatal(err)
		}
		uncancelled = time.Since(whole)
	}
	stop := make(chan struct{})
	opts.Budget.Interrupt = stop
	time.AfterFunc(uncancelled/4, func() { close(stop) })
	start := time.Now()
	_, err := ExecuteBase(plan, base, opts)
	if took := time.Since(start); ErrorCode(err, false) != "canceled" || took > uncancelled*3/4 {
		t.Fatalf("ExecuteBase returned %v after %s, want canceled soon after %s of %s", err, took, uncancelled/4, uncancelled)
	}
}

// digraph is a pseudo-random directed graph on nodes 0..n-1, the same for the
// same arguments.
func digraph(n, edges int) value.Set {
	elems := make([]value.Value, 0, edges)
	x := uint64(88172645463325252)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(n))
	}
	for i := 0; i < edges; i++ {
		elems = append(elems, value.NewTuple(value.Int(next()), value.Int(next())))
	}
	return value.NewSet(elems...)
}

const winProgram = "win(X) :- e(X, Y), not win(Y)."

// BenchmarkDatalogWin: the WIN game over a random digraph of 10 000 positions
// and 20 000 moves, evaluated against a shared fact base as the server does.
func BenchmarkDatalogWin(b *testing.B) {
	base := rel.NewBase(algebra.DB{"e": digraph(10000, 20000)})
	plan, err := Compile(LangDatalog, SemWellFounded, winProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("20k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteBase(plan, base, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
