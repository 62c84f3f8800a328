package query

import (
	"reflect"
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

// relEvents installs a recording collector as the process default for the
// test and returns it.
type relEvents struct {
	obsv.Nop
	mu  sync.Mutex
	evs []obsv.RelStats
}

func (r *relEvents) Rel(s obsv.RelStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, s)
}

func (r *relEvents) take() []obsv.RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.evs
	r.evs = nil
	return evs
}

func recordRel(t *testing.T) *relEvents {
	t.Helper()
	rec := &relEvents{}
	prev := obsv.Default()
	obsv.SetDefault(rec)
	t.Cleanup(func() { obsv.SetDefault(prev) })
	return rec
}

// The shapes the relational engine must not lose, each over a database.
var relationalShapes = []struct {
	name, src string
	db        algebra.DB
}{
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

// TestRelationalMatchesGrounded: on every shape, under every semantics that
// reads a stratified program relationally, Execute's outcome is bit for bit
// the grounded evaluation's — predicate order, key order, IDB, WellDefined —
// whether the base is made for the call or shared, and the event says which
// engine ran.
func TestRelationalMatchesGrounded(t *testing.T) {
	rec := recordRel(t)
	for _, shape := range relationalShapes {
		t.Run(shape.name, func(t *testing.T) {
			base := rel.NewBase(shape.db)
			sems := []Semantics{SemStratified, SemValid, SemWellFounded}
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

// TestEngineChoice: which engine evaluates a datalog plan is a function of
// the program, the semantics and the interning switch, and the event names
// the reason for every fallback.
func TestEngineChoice(t *testing.T) {
	rec := recordRel(t)
	const tc = "e(1, 2). tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."
	const neg = "e(1, 2). n(1). n(3). iso(X) :- n(X), not e(X, 2)."
	const win = "e(1, 2). e(2, 1). e(2, 3). win(X) :- e(X, Y), not win(Y)."
	for _, c := range []struct {
		sem         Semantics
		src         string
		engine, why string
	}{
		{SemStratified, tc, "relational", ""},
		{SemMinimal, tc, "relational", ""},
		{SemValid, neg, "relational", ""},
		{SemWellFounded, neg, "relational", ""},
		{SemMinimal, neg, "grounded", "unstratified"},
		{SemValid, win, "grounded", "unstratified"},
		{SemWellFounded, win, "grounded", "unstratified"},
		{SemInflationary, tc, "grounded", "semantics"},
		{SemStable, win, "grounded", "semantics"},
	} {
		plan := mustCompile(t, LangDatalog, c.sem, c.src)
		rec.take()
		_, err := Execute(plan, nil, Options{})
		evs := rec.take()
		// Minimal over a program with negation is rejected by its engine: the
		// event is there all the same.
		if (err != nil) != (c.sem == SemMinimal && c.src == neg) {
			t.Errorf("%s over %q: %v", c.sem, c.src, err)
		}
		if len(evs) != 1 || evs[0].Engine != c.engine || evs[0].Fallback != c.why {
			t.Errorf("%s over %q: events %+v, want %s %q", c.sem, c.src, evs, c.engine, c.why)
		}
		if RelationalOK(plan) != (c.engine == "relational") {
			t.Errorf("%s over %q: RelationalOK = %v", c.sem, c.src, RelationalOK(plan))
		}
	}

	plan := mustCompile(t, LangDatalog, SemStratified, tc)
	want, err := Execute(plan, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	was := value.SetInterning(false)
	rec.take()
	got, err := Execute(plan, nil, Options{})
	value.SetInterning(was)
	if evs := rec.take(); err != nil || len(evs) != 1 || evs[0].Fallback != "interning off" {
		t.Fatalf("with interning off: %v, events %+v", err, evs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the string-keyed grounded path diverged\n got: %+v\nwant: %+v", got.Datalog, want.Datalog)
	}

	// An unsafe rule has no join order: no engine can run it, the grounder
	// reports it, and the event says why it was the grounder's to report.
	unsafe := mustCompile(t, LangDatalog, SemValid, "p(X) :- not q(X).")
	rec.take()
	if _, err := Execute(unsafe, nil, Options{}); err == nil || ErrorCode(err, false) != "eval-error" {
		t.Fatalf("unsafe rule: %v", err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0].Fallback != "unplannable rule" {
		t.Fatalf("unsafe rule: events %+v", evs)
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
	plan := mustCompile(t, LangDatalog, SemValid, src)
	got, _ := ExecuteBase(plan, base, Options{})
	for _, pf := range got.Datalog.Preds {
		if pf.Pred == "e" && &pf.True[0] != &base.Keys("e", &use)[0] {
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
		plan := mustCompile(t, LangDatalog, SemStratified, c.src)
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
