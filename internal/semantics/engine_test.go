package semantics

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/value"
)

func mustEngine(t *testing.T, src string) *Engine {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.Ground(p, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(g)
}

func truthOf(in *Interp, pred string, args ...value.Value) Truth {
	return in.TruthOf(datalog.Fact{Pred: pred, Args: args})
}

func sym(s string) value.Value { return value.String(s) }

const tcSrc = `
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`

func TestMinimalTC(t *testing.T) {
	e := mustEngine(t, tcSrc)
	in, err := e.Minimal()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(in.TrueFacts("tc")); got != 6 {
		t.Errorf("|tc| = %d, want 6", got)
	}
	if truthOf(in, "tc", value.Int(1), value.Int(4)) != True {
		t.Error("tc(1,4) should be true")
	}
	if truthOf(in, "tc", value.Int(4), value.Int(1)) != False {
		t.Error("tc(4,1) should be false (closed world)")
	}
}

func TestMinimalRejectsNegation(t *testing.T) {
	e := mustEngine(t, "p(1). q(X) :- p(X), not r(X).")
	if _, err := e.Minimal(); !errors.Is(err, ErrNotPositive) {
		t.Fatalf("expected ErrNotPositive, got %v", err)
	}
}

// TestWinGameAcyclic is the paper's Example 3 WIN game on an acyclic MOVE
// relation: the valid interpretation is two-valued.
func TestWinGameAcyclic(t *testing.T) {
	e := mustEngine(t, `
move(a, b). move(b, c). move(b, d).
win(X) :- move(X, Y), not win(Y).
`)
	for name, in := range map[string]*Interp{"valid": e.Valid(), "wfs": e.WellFounded()} {
		// c and d have no moves: lost. b can move to c: won. a can only move
		// to b (won): lost.
		if got := truthOf(in, "win", sym("b")); got != True {
			t.Errorf("%s: win(b) = %v, want true", name, got)
		}
		if got := truthOf(in, "win", sym("a")); got != False {
			t.Errorf("%s: win(a) = %v, want false", name, got)
		}
		if got := truthOf(in, "win", sym("c")); got != False {
			t.Errorf("%s: win(c) = %v, want false", name, got)
		}
		if !in.IsTotal() {
			t.Errorf("%s: acyclic game should be two-valued; %d undefined", name, in.CountUndef())
		}
	}
}

// TestWinGameCyclic: with the tuple [a, a] in MOVE, the paper states the
// membership status of a in WIN is undefined.
func TestWinGameCyclic(t *testing.T) {
	e := mustEngine(t, `
move(a, a). move(a, b).
win(X) :- move(X, Y), not win(Y).
`)
	for name, in := range map[string]*Interp{"valid": e.Valid(), "wfs": e.WellFounded()} {
		// b has no moves: win(b) false. a: move to b (lost) wins... wait,
		// win(a) :- move(a,b), not win(b) derives win(a) TRUE since win(b)
		// is certainly false.
		if got := truthOf(in, "win", sym("a")); got != True {
			t.Errorf("%s: win(a) = %v, want true (a can move to lost b)", name, got)
		}
	}
	// A pure cycle with no escape is genuinely undefined.
	e2 := mustEngine(t, `
move(a, a).
win(X) :- move(X, Y), not win(Y).
`)
	for name, in := range map[string]*Interp{"valid": e2.Valid(), "wfs": e2.WellFounded()} {
		if got := truthOf(in, "win", sym("a")); got != Undef {
			t.Errorf("%s: win(a) = %v, want undef on pure cycle", name, got)
		}
	}
}

// TestExample4 reproduces the paper's Example 4: the translation of
// Q = IFP_{{a}−x} is { r(a);  q(X) :- r(X), not q(X) }. Under inflationary
// semantics q(a) is derived; under the valid (and well-founded) semantics
// q(a) is undefined.
func TestExample4(t *testing.T) {
	e := mustEngine(t, `
r(a).
q(X) :- r(X), not q(X).
`)
	infl, steps := e.Inflationary()
	if got := truthOf(infl, "q", sym("a")); got != True {
		t.Errorf("inflationary: q(a) = %v, want true", got)
	}
	if steps != 1 {
		t.Errorf("inflationary steps = %d, want 1 (r(a) is given at step 0, q(a) fires at step 1)", steps)
	}
	if got := truthOf(e.Valid(), "q", sym("a")); got != Undef {
		t.Errorf("valid: q(a) = %v, want undef", got)
	}
	if got := truthOf(e.WellFounded(), "q", sym("a")); got != Undef {
		t.Errorf("wfs: q(a) = %v, want undef", got)
	}
}

func TestInflationaryFactsAtStepZero(t *testing.T) {
	// Database facts are the step-0 structure: a rule negating a fact must
	// never fire (regression: starting from the empty set instead would
	// derive p at step 1, diverging from the Proposition 5.2 transform and
	// from the standard inflationary semantics).
	e := mustEngine(t, "q. p :- not q.")
	infl, steps := e.Inflationary()
	if got := truthOf(infl, "p"); got != False {
		t.Errorf("p = %v, want false (q is a fact)", got)
	}
	if got := truthOf(infl, "q"); got != True {
		t.Errorf("q = %v, want true", got)
	}
	if steps != 0 {
		t.Errorf("steps = %d, want 0 (nothing fires after step 0)", steps)
	}
	// Negating a derived atom still respects derivation order.
	e2 := mustEngine(t, "q :- r. r. p :- not q.")
	infl2, _ := e2.Inflationary()
	if got := truthOf(infl2, "p"); got != True {
		t.Errorf("p = %v, want true (q not yet derived at step 1)", got)
	}
}

func TestStratifiedEvaluation(t *testing.T) {
	src := `
e(1, 2). e(2, 3).
n(1). n(2). n(3).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
un(X, Y) :- n(X), n(Y), not tc(X, Y).
`
	p := datalog.MustParse(src)
	strat, err := datalog.Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, src)
	in, err := e.Stratified(strat)
	if err != nil {
		t.Fatal(err)
	}
	if got := truthOf(in, "un", value.Int(3), value.Int(1)); got != True {
		t.Errorf("un(3,1) = %v, want true", got)
	}
	if got := truthOf(in, "un", value.Int(1), value.Int(3)); got != False {
		t.Errorf("un(1,3) = %v, want false", got)
	}
	// Stratified result agrees with valid/WFS on stratified programs.
	if !SameTruths(in, e.Valid()) {
		t.Error("stratified and valid models differ on a stratified program")
	}
	if !SameTruths(in, e.WellFounded()) {
		t.Error("stratified and WFS models differ on a stratified program")
	}
}

func TestStratifiedRejectsBadStrata(t *testing.T) {
	e := mustEngine(t, "p(1). q(X) :- p(X), not r(X). r(1).")
	if _, err := e.Stratified(map[string]int{"p": 0, "q": 0, "r": 0}); err == nil {
		t.Error("expected error for negation within a stratum")
	}
	if _, err := e.Stratified(map[string]int{"p": 0, "q": 1}); err == nil {
		t.Error("expected error for missing stratum")
	}
}

func TestStableModelsWinCycle(t *testing.T) {
	// Pure two-cycle: win(a) :- not win(b) essence; two stable models.
	e := mustEngine(t, `
move(a, b). move(b, a).
win(X) :- move(X, Y), not win(Y).
`)
	models, err := e.StableModels(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d stable models, want 2", len(models))
	}
	// One has win(a), the other win(b), never both.
	seen := map[string]bool{}
	for _, m := range models {
		a := truthOf(m, "win", sym("a")) == True
		b := truthOf(m, "win", sym("b")) == True
		if a == b {
			t.Errorf("stable model has win(a)=%v win(b)=%v", a, b)
		}
		if a {
			seen["a"] = true
		} else {
			seen["b"] = true
		}
	}
	if !seen["a"] || !seen["b"] {
		t.Error("expected one model with win(a) and one with win(b)")
	}
}

func TestStableModelsOddLoop(t *testing.T) {
	// p :- not p has no stable model (and p is undefined in WFS/valid).
	e := mustEngine(t, "p :- not p.")
	models, err := e.StableModels(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 0 {
		t.Errorf("got %d stable models, want 0", len(models))
	}
}

func TestStableModelsBudget(t *testing.T) {
	e := mustEngine(t, `
move(a, b). move(b, a).
win(X) :- move(X, Y), not win(Y).
`)
	_, err := e.StableModels(1)
	if !errors.Is(err, ErrTooManyUndef) {
		t.Fatalf("expected ErrTooManyUndef, got %v", err)
	}
}

func TestWFSTrueInEveryStableModel(t *testing.T) {
	// The well-founded model is the skeptical core of the stable models.
	srcs := []string{
		"move(a, b). move(b, a). move(b, c).\nwin(X) :- move(X, Y), not win(Y).",
		"p :- not q. q :- not p. r :- p. r :- q.",
		"a :- not b. b :- not a. c :- not c, a.",
	}
	for _, src := range srcs {
		e := mustEngine(t, src)
		wf := e.WellFounded()
		models, err := e.StableModels(20)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			for id := 0; id < e.Ground().NumAtoms(); id++ {
				if wf.Truth(id) == True && m.Truth(id) != True {
					t.Errorf("%s: WFS-true atom %s not in stable model", src, e.Ground().Atom(id))
				}
				if wf.Truth(id) == False && m.Truth(id) != False {
					t.Errorf("%s: WFS-false atom %s true in stable model", src, e.Ground().Atom(id))
				}
			}
		}
	}
}

func TestValidEqualsWFSOnCorpus(t *testing.T) {
	// The Section 2.2 valid procedure and the alternating fixpoint are
	// independently implemented; they must agree on the corpus (the paper's
	// remark that its results adjust between the semantics).
	srcs := []string{
		tcSrc,
		"move(a, a).\nwin(X) :- move(X, Y), not win(Y).",
		"move(a, b). move(b, a). move(b, c).\nwin(X) :- move(X, Y), not win(Y).",
		"r(a).\nq(X) :- r(X), not q(X).",
		"p :- not q. q :- not p.",
		"p :- not p.",
		"d(1). d(2).\np(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).\nboth(X) :- p(X). both(X) :- q(X).",
	}
	for _, src := range srcs {
		e := mustEngine(t, src)
		if !SameTruths(e.Valid(), e.WellFounded()) {
			t.Errorf("valid and WFS differ on:\n%s", src)
		}
	}
}

func TestInflationaryVsValidOnStratified(t *testing.T) {
	// On a semipositive program, inflationary = stratified = valid
	// (negations on EDB only).
	src := `
d(1). d(2). q(2).
p(X) :- d(X), not q(X).
`
	e := mustEngine(t, src)
	infl, _ := e.Inflationary()
	if !SameTruths(infl, e.Valid()) {
		t.Error("inflationary and valid differ on semipositive program")
	}
}

// randomGroundProgram builds a small random propositional program text.
func randomGroundProgram(r *rand.Rand) string {
	atoms := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	var sb []byte
	nRules := 3 + r.Intn(8)
	for i := 0; i < nRules; i++ {
		head := atoms[r.Intn(len(atoms))]
		sb = append(sb, head...)
		nBody := r.Intn(3)
		if nBody > 0 {
			sb = append(sb, " :- "...)
			for j := 0; j < nBody; j++ {
				if j > 0 {
					sb = append(sb, ", "...)
				}
				if r.Intn(3) == 0 {
					sb = append(sb, "not "...)
				}
				sb = append(sb, atoms[r.Intn(len(atoms))]...)
			}
		}
		sb = append(sb, ".\n"...)
	}
	return string(sb)
}

func TestPropertyWFSConsistentWithStable(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomGroundProgram(r)
		p, err := datalog.ParseProgram(src)
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		e := NewEngine(g)
		wf := e.WellFounded()
		valid := e.Valid()
		if !SameTruths(wf, valid) {
			t.Logf("valid != WFS on:\n%s", src)
			return false
		}
		models, err := e.StableModels(20)
		if err != nil {
			return false
		}
		for _, m := range models {
			for id := 0; id < g.NumAtoms(); id++ {
				if wf.Truth(id) == True && m.Truth(id) != True {
					return false
				}
				if wf.Truth(id) == False && m.Truth(id) == True {
					return false
				}
			}
		}
		// If WFS is total it is the unique stable model.
		if wf.IsTotal() {
			if len(models) != 1 || !SameTruths(models[0], wf) {
				t.Logf("total WFS but stable models = %d on:\n%s", len(models), src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInflationaryContainsMinimalOnPositive(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// positive random program: strip negation by regenerating
		atoms := []string{"a0", "a1", "a2", "a3"}
		var sb []byte
		for i := 0; i < 3+r.Intn(6); i++ {
			sb = append(sb, atoms[r.Intn(len(atoms))]...)
			n := r.Intn(3)
			if n > 0 {
				sb = append(sb, " :- "...)
				for j := 0; j < n; j++ {
					if j > 0 {
						sb = append(sb, ", "...)
					}
					sb = append(sb, atoms[r.Intn(len(atoms))]...)
				}
			}
			sb = append(sb, ".\n"...)
		}
		p, err := datalog.ParseProgram(string(sb))
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		e := NewEngine(g)
		min, err := e.Minimal()
		if err != nil {
			return false
		}
		infl, _ := e.Inflationary()
		wfs := e.WellFounded()
		// On positive programs all semantics coincide with the minimal model.
		return SameTruths(min, infl) && SameTruths(min, wfs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLocallyStratifiedHasTotalWFS is the executable form of the paper's
// Theorem 3.1 proof principle: a locally stratified ground program has a
// two-valued well-founded (hence valid) model. Checked on random programs:
// whenever local stratification holds, WFS must be total.
func TestLocallyStratifiedHasTotalWFS(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomGroundProgram(r)
		p, err := datalog.ParseProgram(src)
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		e := NewEngine(g)
		wf := e.WellFounded()
		if ground.LocallyStratified(g) && !wf.IsTotal() {
			t.Logf("locally stratified but WFS not total:\n%s", src)
			return false
		}
		// The converse does not hold in general (p :- not p, p. is total but
		// not locally stratified), so only the forward direction is law.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestEvalConvenience(t *testing.T) {
	p := datalog.MustParse(tcSrc)
	for _, sem := range []Semantics{SemMinimal, SemStratified, SemInflationary, SemWellFounded, SemValid} {
		in, err := Eval(p, sem, ground.Budget{})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if got := len(in.TrueFacts("tc")); got != 6 {
			t.Errorf("%v: |tc| = %d, want 6", sem, got)
		}
	}
	// Minimal rejects programs with negation; stratified rejects win game.
	neg := datalog.MustParse("p(1). q(X) :- p(X), not r(X).")
	if _, err := Eval(neg, SemMinimal, ground.Budget{}); err == nil {
		t.Error("SemMinimal should reject negation")
	}
	win := datalog.MustParse("move(a, a). win(X) :- move(X, Y), not win(Y).")
	if _, err := Eval(win, SemStratified, ground.Budget{}); err == nil {
		t.Error("SemStratified should reject the win game")
	}
}

func TestParseSemantics(t *testing.T) {
	for name, want := range map[string]Semantics{
		"minimal": SemMinimal, "stratified": SemStratified, "inflationary": SemInflationary,
		"wellfounded": SemWellFounded, "well-founded": SemWellFounded, "wfs": SemWellFounded,
		"valid": SemValid,
	} {
		got, err := ParseSemantics(name)
		if err != nil || got != want {
			t.Errorf("ParseSemantics(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSemantics("nope"); err == nil {
		t.Error("expected error for unknown semantics")
	}
	for _, s := range []Semantics{SemMinimal, SemStratified, SemInflationary, SemWellFounded, SemValid} {
		if s.String() == "" {
			t.Error("empty semantics name")
		}
	}
}

func TestInterpAccessors(t *testing.T) {
	e := mustEngine(t, "move(a, a). win(X) :- move(X, Y), not win(Y).")
	in := e.Valid()
	if in.IsTotal() {
		t.Error("cyclic game should not be total")
	}
	if got := in.CountUndef(); got != 1 {
		t.Errorf("CountUndef = %d, want 1", got)
	}
	un := in.UndefFacts("win")
	if len(un) != 1 || un[0].Key() != "win(a)" {
		t.Errorf("UndefFacts = %v", un)
	}
	if len(in.UndefAtoms()) != 1 {
		t.Errorf("UndefAtoms = %v", in.UndefAtoms())
	}
	if got := truthOf(in, "move", sym("a"), sym("a")); got != True {
		t.Errorf("move(a,a) = %v", got)
	}
	if Truth(0).String() != "undef" || True.String() != "true" || False.String() != "false" {
		t.Error("Truth.String broken")
	}
}
