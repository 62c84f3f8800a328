package ground

import (
	"errors"
	"strings"
	"testing"

	"algrec/internal/datalog"
	"algrec/internal/value"
)

func mustGround(t *testing.T, src string) *Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Ground(p, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroundFacts(t *testing.T) {
	g := mustGround(t, "e(1, 2). e(2, 3). e(1, 2).")
	if g.NumAtoms() != 2 {
		t.Fatalf("atoms = %d, want 2 (duplicate fact deduped)", g.NumAtoms())
	}
	if len(g.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(g.Rules))
	}
	if _, ok := g.Lookup(datalog.Fact{Pred: "e", Args: []value.Value{value.Int(1), value.Int(2)}}); !ok {
		t.Error("e(1,2) not interned")
	}
}

func TestGroundTransitiveClosure(t *testing.T) {
	g := mustGround(t, `
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`)
	// tc over a 4-chain: pairs (i,j) with i<j: 6 atoms + 3 e atoms.
	if got := len(g.AtomsOf("tc")); got != 6 {
		t.Errorf("tc atoms = %d, want 6", got)
	}
	// ground rules: 3 facts + 3 base tc rules + chains: tc(1,2)e(2,3), tc(1,3)e(3,4),
	// tc(2,3)e(3,4) -> 3+3+3 = 9
	if got := len(g.Rules); got != 9 {
		t.Errorf("ground rules = %d, want 9", got)
	}
}

func TestGroundNegation(t *testing.T) {
	g := mustGround(t, `
move(a, b). move(b, c).
win(X) :- move(X, Y), not win(Y).
`)
	// possible win atoms: win(a), win(b); win(c) appears only negatively.
	wins := g.AtomsOf("win")
	keys := map[string]bool{}
	for _, id := range wins {
		keys[g.Atom(id).Key()] = true
	}
	for _, k := range []string{"win(a)", "win(b)", "win(c)"} {
		if !keys[k] {
			t.Errorf("atom %s not interned; got %v", k, keys)
		}
	}
	// win(c) must have no deriving rule.
	cid, _ := g.Lookup(datalog.Fact{Pred: "win", Args: []value.Value{value.String("c")}})
	for _, r := range g.Rules {
		if r.Head == cid {
			t.Error("win(c) should have no deriving rules")
		}
	}
}

func TestGroundAssignmentsAndTests(t *testing.T) {
	g := mustGround(t, `
n(1). n(2). n(3).
big(Y) :- n(X), Y = plus(X, 10), Y >= 12.
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("big") {
		got[g.Atom(id).Key()] = true
	}
	if len(got) != 2 || !got["big(12)"] || !got["big(13)"] {
		t.Errorf("big atoms = %v, want big(12), big(13)", got)
	}
}

func TestGroundFunctionRecursionBudget(t *testing.T) {
	p := datalog.MustParse(`
n(0).
n(Y) :- n(X), Y = plus(X, 1).
`)
	_, err := Ground(p, Budget{MaxAtoms: 100})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetError, got %v", err)
	}
	if be.What != "atoms" || be.Limit != 100 {
		t.Errorf("budget error = %+v", be)
	}
	if !strings.Contains(be.Error(), "infinite") {
		t.Errorf("budget error message %q should warn about infinite relations", be)
	}
}

func TestGroundBoundedFunctionRecursion(t *testing.T) {
	// Same program with an explicit bound in the rule terminates.
	g := mustGround(t, `
n(0).
n(Y) :- n(X), Y = plus(X, 1), Y < 50.
`)
	if got := len(g.AtomsOf("n")); got != 50 {
		t.Errorf("n atoms = %d, want 50", got)
	}
}

func TestGroundUnsafeRule(t *testing.T) {
	p := datalog.MustParse("p(X) :- not q(X).\nq(1).\n")
	_, err := Ground(p, Budget{})
	if err == nil || !strings.Contains(err.Error(), "not restricted") {
		t.Fatalf("expected unsafe-rule error, got %v", err)
	}
	p2 := datalog.MustParse("p(X) :- X != 1.\n")
	_, err = Ground(p2, Budget{})
	if err == nil {
		t.Fatal("expected no-executable-order error")
	}
}

func TestGroundZeroArity(t *testing.T) {
	g := mustGround(t, `
one.
two :- one.
three :- two, not four.
`)
	if g.NumAtoms() != 4 {
		t.Fatalf("atoms = %d, want 4", g.NumAtoms())
	}
	if len(g.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(g.Rules))
	}
}

func TestGroundEmptyProgram(t *testing.T) {
	g := mustGround(t, "")
	if g.NumAtoms() != 0 || len(g.Rules) != 0 {
		t.Errorf("empty program grounded to %d atoms, %d rules", g.NumAtoms(), len(g.Rules))
	}
}

func TestGroundComplexHeadTerms(t *testing.T) {
	g := mustGround(t, `
e(1, 2).
pairset(tup(X, Y)) :- e(X, Y).
`)
	want := datalog.Fact{Pred: "pairset", Args: []value.Value{value.Pair(value.Int(1), value.Int(2))}}
	if _, ok := g.Lookup(want); !ok {
		t.Errorf("missing %s", want)
	}
}

func TestGroundMatchComplexArgs(t *testing.T) {
	// A positive atom with a function-term argument is checked, not inverted:
	// p(plus(X,1)) with X bound from d(X).
	g := mustGround(t, `
d(1). d(2).
p(2).
q(X) :- d(X), p(plus(X, 1)).
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("q") {
		got[g.Atom(id).Key()] = true
	}
	if len(got) != 1 || !got["q(1)"] {
		t.Errorf("q atoms = %v, want q(1)", got)
	}
}

func TestGroundSharedVarJoin(t *testing.T) {
	g := mustGround(t, `
r(1, a). r(2, b).
s(a, x). s(b, y). s(a, z).
j(X, Z) :- r(X, Y), s(Y, Z).
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("j") {
		got[g.Atom(id).Key()] = true
	}
	want := []string{"j(1, x)", "j(1, z)", "j(2, y)"}
	if len(got) != len(want) {
		t.Fatalf("j atoms = %v, want %v", got, want)
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("missing %s in %v", k, got)
		}
	}
}

func TestGroundPreds(t *testing.T) {
	// A predicate that occurs only negated still gets its atoms.
	g := mustGround(t, "b(1). a(X) :- b(X), not c(X).")
	var got []string
	for _, p := range []string{"a", "b", "c", "d"} {
		if len(g.AtomsOf(p)) > 0 {
			got = append(got, p)
		}
	}
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("predicates with atoms = %v, want a,b,c", got)
	}
}

func TestGroundRuleBudget(t *testing.T) {
	p := datalog.MustParse(`
d(1). d(2). d(3). d(4). d(5).
p(X, Y, Z) :- d(X), d(Y), d(Z).
`)
	_, err := Ground(p, Budget{MaxRules: 10})
	var be *BudgetError
	if !errors.As(err, &be) || be.What != "rules" {
		t.Fatalf("expected rule BudgetError, got %v", err)
	}
}
