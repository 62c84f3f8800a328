package translate

import (
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/value"
)

func pairsOf(ps ...[2]string) value.Set {
	elems := make([]value.Value, len(ps))
	for i, p := range ps {
		elems[i] = value.Pair(value.String(p[0]), value.String(p[1]))
	}
	return value.NewSet(elems...)
}

func evalValidDatalog(t *testing.T, p *datalog.Program) *semantics.Interp {
	t.Helper()
	in, err := semantics.Eval(p, semantics.SemValid, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// tcIFP is the transitive-closure IFP expression over relation "move".
func tcIFP() algebra.Expr {
	p := algebra.FVar{Name: "p"}
	join := algebra.Select{
		Of:  algebra.Product{L: algebra.Rel{Name: "x"}, R: algebra.Rel{Name: "move"}},
		Var: "p",
		Test: algebra.FCmp{Op: builtin.Eq,
			L: algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 2},
			R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
	}
	compose := algebra.Map{Of: join, Var: "p", Out: algebra.FTuple{Elems: []algebra.FExpr{
		algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 1},
		algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2},
	}}}
	return algebra.IFP{Var: "x", Body: algebra.Union{L: algebra.Rel{Name: "move"}, R: compose}}
}

// TestProp51PositiveIFP: a positive IFP-algebra query and its deductive
// translation agree; for positive queries every semantics gives the same
// answer, so we check both inflationary (Proposition 5.1) and valid.
func TestProp51PositiveIFP(t *testing.T) {
	db := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})}
	want, err := algebra.Eval(tcIFP(), db)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := AlgebraToDatalog(tcIFP(), "result", nil)
	if err != nil {
		t.Fatal(err)
	}
	prog.AddFacts(DBFacts(db)...)
	for _, sem := range []semantics.Semantics{semantics.SemInflationary, semantics.SemValid, semantics.SemWellFounded} {
		in, err := semantics.Eval(prog, sem, ground.Budget{})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		got := TrueSet(in, "result")
		if !value.Equal(got, want) {
			t.Errorf("%v: translated TC = %v, want %v", sem, got, want)
		}
	}
}

// TestProp51Example4 is the paper's Example 4 end to end: Q = IFP_{{a}−x}
// evaluates to {a}; its translation derives result(a) under the inflationary
// semantics but leaves it undefined under the valid semantics.
func TestProp51Example4(t *testing.T) {
	a := value.String("a")
	q := algebra.IFP{Var: "x", Body: algebra.Diff{L: algebra.Singleton(a), R: algebra.Rel{Name: "x"}}}
	want, err := algebra.Eval(q, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := AlgebraToDatalog(q, "result", nil)
	if err != nil {
		t.Fatal(err)
	}
	infl, err := semantics.Eval(prog, semantics.SemInflationary, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := TrueSet(infl, "result"); !value.Equal(got, want) {
		t.Errorf("inflationary result = %v, want %v", got, want)
	}
	valid := evalValidDatalog(t, prog)
	if got := valid.TruthOf(datalog.Fact{Pred: "result", Args: []value.Value{a}}); got != semantics.Undef {
		t.Errorf("valid result(a) = %v, want undef (the paper's Example 4)", got)
	}
}

// TestProp52StepIndex: valid evaluation of the step-indexed transform equals
// inflationary evaluation of the original, on stratified and non-stratified
// programs alike.
func TestProp52StepIndex(t *testing.T) {
	srcs := []string{
		// Example 4's program: inflationary derives q(a).
		"r(a).\nq(X) :- r(X), not q(X).",
		// The win game on a cycle.
		"move(a, b). move(b, a). move(b, c).\nwin(X) :- move(X, Y), not win(Y).",
		// Transitive closure (positive).
		"e(1, 2). e(2, 3).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).",
		// Mutual negation.
		"d(1). d(2).\np(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).",
		// Rule with no positive atom.
		"p :- not q.\nr :- p.",
	}
	for _, src := range srcs {
		p := datalog.MustParse(src)
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		infl, steps := semantics.NewEngine(g).Inflationary()
		transformed := StepIndex(p, int64(steps)+1)
		valid := evalValidDatalog(t, transformed)
		if cu := valid.CountUndef(); cu != 0 {
			t.Errorf("%s:\nstep-indexed program should be two-valued, %d undefined", src, cu)
		}
		for _, pred := range p.Preds() {
			wantSet := TrueSet(infl, pred)
			gotSet := TrueSet(valid, pred)
			if !value.Equal(wantSet, gotSet) {
				t.Errorf("%s:\npred %s: inflationary %v vs step-indexed valid %v", src, pred, wantSet, gotSet)
			}
		}
	}
}

// winCore is Example 3's WIN program as algebra=.
func winCore() *core.Program {
	body := algebra.Proj(
		algebra.Diff{
			L: algebra.Rel{Name: "move"},
			R: algebra.Product{L: algebra.Proj(algebra.Rel{Name: "move"}, 1), R: algebra.Rel{Name: "win"}},
		}, 1)
	return &core.Program{Defs: []core.Def{{Name: "win", Body: body}}}
}

// TestProp54CoreToDatalog: an algebra= program and its deductive translation
// agree under the valid semantics on both certain and undefined facts.
func TestProp54CoreToDatalog(t *testing.T) {
	dbs := []algebra.DB{
		{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"b", "d"})},
		{"move": pairsOf([2]string{"a", "a"})},
		{"move": pairsOf([2]string{"a", "a"}, [2]string{"a", "b"})},
		{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"b", "c"})},
	}
	for _, db := range dbs {
		res, err := core.EvalValid(winCore(), db, algebra.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CoreToDatalog(winCore())
		if err != nil {
			t.Fatal(err)
		}
		prog.AddFacts(DBFacts(db)...)
		in := evalValidDatalog(t, prog)
		if got, want := TrueSet(in, "win"), res.Set("win"); !value.Equal(got, want) {
			t.Errorf("db %v: certain win: datalog %v vs core %v", db, got, want)
		}
		if got, want := UndefSet(in, "win"), res.UndefElems("win"); !value.Equal(got, want) {
			t.Errorf("db %v: undefined win: datalog %v vs core %v", db, got, want)
		}
	}
}

// TestProp61WinGame: the deduction-to-algebra direction on the win game:
// the algebra= translation evaluated with core.EvalValid matches the valid
// semantics of the original program, including undefined atoms.
func TestProp61WinGame(t *testing.T) {
	srcs := []string{
		"move(a, b). move(b, c). move(b, d).\nwin(X) :- move(X, Y), not win(Y).",
		"move(a, a).\nwin(X) :- move(X, Y), not win(Y).",
		"move(a, a). move(a, b).\nwin(X) :- move(X, Y), not win(Y).",
		"move(a, b). move(b, a).\nwin(X) :- move(X, Y), not win(Y).",
	}
	for _, src := range srcs {
		p := datalog.MustParse(src)
		in := evalValidDatalog(t, p)
		cp, db, err := DatalogToCore(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Set("win"), TrueSet(in, "win"); !value.Equal(got, want) {
			t.Errorf("%s:\ncertain win: core %v vs datalog %v", src, got, want)
		}
		if got, want := res.UndefElems("win"), UndefSet(in, "win"); !value.Equal(got, want) {
			t.Errorf("%s:\nundefined win: core %v vs datalog %v", src, got, want)
		}
	}
}

// TestProp61General exercises the simulation-function compilation on joins,
// assignments, comparisons, multiple rules and multiple predicates.
func TestProp61General(t *testing.T) {
	srcs := []string{
		// transitive closure
		"e(1, 2). e(2, 3). e(3, 4).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).",
		// same generation
		`par(a, c). par(b, c). par(c, e). par(d, e).
sg(X, Y) :- par(X, Z), par(Y, Z).
sg(X, Y) :- par(X, W), sg(W, V), par(Y, V).`,
		// arithmetic assignment and comparison
		"n(1). n(2). n(3).\nbig(Y) :- n(X), Y = plus(X, 10), Y >= 12.",
		// constants in atom arguments and repeated variables
		"e(1, 1). e(1, 2). e(2, 2).\nloop(X) :- e(X, X).\nfromone(Y) :- e(1, Y).",
		// negation against an EDB relation
		"d(1). d(2). d(3). q(2).\np(X) :- d(X), not q(X).",
		// multiple IDB predicates with interdependencies
		`d(1). d(2).
a(X) :- d(X), not b(X).
b(X) :- d(X), not a(X).
both(X) :- a(X). both(X) :- b(X).`,
		// 0-ary predicates
		"one.\ntwo :- one.\nthree :- two, not four.",
		// IDB facts mixed with rules
		"win(z).\nmove(a, b).\nwin(X) :- move(X, Y), not win(Y).",
	}
	for _, src := range srcs {
		p := datalog.MustParse(src)
		in := evalValidDatalog(t, p)
		cp, db, err := DatalogToCore(p)
		if err != nil {
			t.Fatalf("%s:\n%v", src, err)
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Fatalf("%s:\n%v", src, err)
		}
		for _, pred := range p.IDB() {
			if got, want := res.Set(pred), TrueSet(in, pred); !value.Equal(got, want) {
				t.Errorf("%s:\npred %s certain: core %v vs datalog %v", src, pred, got, want)
			}
			if got, want := res.UndefElems(pred), UndefSet(in, pred); !value.Equal(got, want) {
				t.Errorf("%s:\npred %s undefined: core %v vs datalog %v", src, pred, got, want)
			}
		}
	}
}

// TestTheorem62RoundTrip: datalog → algebra= → datalog preserves the valid
// model of every IDB predicate.
func TestTheorem62RoundTrip(t *testing.T) {
	src := "move(a, a). move(a, b). move(b, c).\nwin(X) :- move(X, Y), not win(Y)."
	p := datalog.MustParse(src)
	orig := evalValidDatalog(t, p)
	cp, db, err := DatalogToCore(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := CoreToDatalog(cp)
	if err != nil {
		t.Fatal(err)
	}
	back.AddFacts(DBFacts(db)...)
	in2 := evalValidDatalog(t, back)
	if got, want := TrueSet(in2, "win"), TrueSet(orig, "win"); !value.Equal(got, want) {
		t.Errorf("round trip certain win: %v vs %v", got, want)
	}
	if got, want := UndefSet(in2, "win"), UndefSet(orig, "win"); !value.Equal(got, want) {
		t.Errorf("round trip undefined win: %v vs %v", got, want)
	}
}

// TestTheorem43Stratified: a stratified program, its positive IFP-algebra
// translation, and the stratified evaluation all agree; the translation is
// genuinely positive IFP (no recursive definitions, positive IFP bodies).
func TestTheorem43Stratified(t *testing.T) {
	srcs := []string{
		`e(1, 2). e(2, 3). n(1). n(2). n(3).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
un(X, Y) :- n(X), n(Y), not tc(X, Y).`,
		`e(1, 2). e(2, 1). e(3, 3). n(1). n(2). n(3).
r(X) :- e(1, X).
r(Y) :- r(X), e(X, Y).
iso(X) :- n(X), not r(X).
pairup(X, Y) :- iso(X), r(Y).`,
		// three strata
		`d(1). d(2). d(3).
a(X) :- d(X), X < 3.
b(X) :- d(X), not a(X).
c(X) :- d(X), not b(X).`,
	}
	for _, src := range srcs {
		p := datalog.MustParse(src)
		strat, err := datalog.Stratify(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		in, err := semantics.NewEngine(g).Stratified(strat)
		if err != nil {
			t.Fatal(err)
		}
		cp, db, err := StratifiedToPositiveIFP(p)
		if err != nil {
			t.Fatalf("%s:\n%v", src, err)
		}
		// The output is a positive IFP-algebra program: no recursive
		// definitions (all recursion lives inside IFP operators) and every
		// IFP variable occurs only positively in its body. Subtraction of
		// *closed* lower-stratum expressions is permitted — that is exactly
		// how stratified negation is compiled.
		if cp.HasRecursion() {
			t.Errorf("%s:\ntranslation has recursive definitions", src)
		}
		for _, d := range cp.Defs {
			if !algebra.IsPositiveIFP(d.Body) {
				t.Errorf("%s:\ndefinition %s has a non-positive IFP", src, d.Name)
			}
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Fatalf("%s:\n%v", src, err)
		}
		if !res.WellDefined() {
			t.Errorf("%s:\npositive IFP translation should be well defined", src)
		}
		for _, pred := range p.IDB() {
			if got, want := res.Set(pred), TrueSet(in, pred); !value.Equal(got, want) {
				t.Errorf("%s:\npred %s: core %v vs stratified %v", src, pred, got, want)
			}
		}
	}
}

// TestStratifiedRejectsWinGame: the Theorem 4.3 translation requires a
// stratified input.
func TestStratifiedRejectsWinGame(t *testing.T) {
	p := datalog.MustParse("move(a, a).\nwin(X) :- move(X, Y), not win(Y).")
	if _, _, err := StratifiedToPositiveIFP(p); err == nil {
		t.Fatal("expected stratification error")
	}
}

func TestDatalogToCoreRejectsUnsafe(t *testing.T) {
	p := datalog.MustParse("q(1).\np(X) :- not q(X).")
	if _, _, err := DatalogToCore(p); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("expected unsafe-rule error, got %v", err)
	}
}

func TestConvertHelpers(t *testing.T) {
	fs := []datalog.Fact{
		{Pred: "e", Args: []value.Value{value.Int(1), value.Int(2)}},
		{Pred: "e", Args: []value.Value{value.Int(2), value.Int(3)}},
	}
	s := FactsToSet(fs)
	if s.Len() != 2 || !s.Has(value.Pair(value.Int(1), value.Int(2))) {
		t.Errorf("FactsToSet = %v", s)
	}
	back, err := SetToFacts("e", s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Key() != "e(1, 2)" {
		t.Errorf("SetToFacts = %v", back)
	}
	if _, err := SetToFacts("e", value.NewSet(value.Int(1)), 2); err == nil {
		t.Error("expected arity mismatch error")
	}
	// unary convention
	u := FactsToSet([]datalog.Fact{{Pred: "p", Args: []value.Value{value.Int(7)}}})
	if !value.Equal(u, value.NewSet(value.Int(7))) {
		t.Errorf("unary FactsToSet = %v", u)
	}
	// arity inconsistency detection
	bad := datalog.MustParse("p(1). p(1, 2).")
	if _, err := Arities(bad); err == nil {
		t.Error("expected arity inconsistency error")
	}
}

func TestDBFactsRoundTrip(t *testing.T) {
	db := algebra.DB{
		"r": value.NewSet(value.Int(1), value.Int(2)),
		"s": value.NewSet(value.Pair(value.Int(1), value.String("a"))),
	}
	fs := DBFacts(db)
	if len(fs) != 3 {
		t.Fatalf("DBFacts produced %d facts, want 3", len(fs))
	}
	// Every relation element round-trips through the unary predicate.
	byPred := map[string][]datalog.Fact{}
	for _, f := range fs {
		byPred[f.Pred] = append(byPred[f.Pred], f)
	}
	for name, want := range db {
		if got := FactsToSet(byPred[name]); !value.Equal(got, want) {
			t.Errorf("relation %s: %v vs %v", name, got, want)
		}
	}
}
