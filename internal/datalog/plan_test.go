package datalog

import (
	"strings"
	"testing"
)

// renderPlan prints a plan one step per word: a match as the atom with its
// adornment (b bound, f free, per argument), an assignment as "V:=", a test
// as its comparison, negated atoms last.
func renderPlan(p EntryPlan) string {
	var out []string
	for _, st := range p.Steps {
		switch st.Kind {
		case StepMatch:
			adorn := make([]byte, len(st.Bound))
			for k, b := range st.Bound {
				adorn[k] = 'f'
				if b {
					adorn[k] = 'b'
				}
			}
			out = append(out, st.Atom.String()+"^"+string(adorn))
		case StepAssign:
			out = append(out, string(st.AssignVar)+":=")
		case StepTest:
			out = append(out, st.Cmp.String())
		}
	}
	for _, na := range p.Negs {
		out = append(out, "not "+na.String())
	}
	return strings.Join(out, " ; ")
}

// TestPlanRuleFromFollowsTheBindingPattern pins the order chosen per entry
// pattern: the same body runs in a different order depending on what the
// entry binds, where PlanRule keeps the textual one.
func TestPlanRuleFromFollowsTheBindingPattern(t *testing.T) {
	for _, c := range []struct {
		name, rule string
		bound      []Var
		skip       int
		want       string
	}{
		{"reach from scratch", "r(Y) :- r(X), e(X, Y).", nil, -1, "r(X)^f ; e(X, Y)^bf"},
		{"reach head-bound probes e by its second column", "r(Y) :- r(X), e(X, Y).", []Var{"Y"}, -1, "e(X, Y)^fb ; r(X)^b"},
		{"reach pivoted on r", "r(Y) :- r(X), e(X, Y).", []Var{"X"}, 0, "e(X, Y)^bf"},
		{"reach pivoted on e", "r(Y) :- r(X), e(X, Y).", []Var{"X", "Y"}, 1, "r(X)^b"},
		{"a constant is a bound position", "hub(Y) :- e(X, Y), e(0, Y).", nil, -1, "e(0, Y)^bf ; e(X, Y)^fb"},
		{"a fully bound atom is a test and goes first", "p(X) :- a(X, Y, Z), c(Y, Y, Z), b(X).", []Var{"X"}, -1, "b(X)^b ; a(X, Y, Z)^bff ; c(Y, Y, Z)^bbb"},
		{"most bound positions, ties in textual order", "p(X) :- a(X, U), b(X, Y, V), c(Y, X, W).", []Var{"X", "Y"}, -1, "b(X, Y, V)^bbf ; c(Y, X, W)^bbf ; a(X, U)^bf"},
		{"comparisons as soon as evaluable", "q(W) :- d(V), e(W, Z), W = plus(V, 1), W < 4.", nil, -1, "d(V)^f ; W:= ; W < 4 ; e(W, Z)^bf"},
		{"a pre-bound assignment target is a test", "q(W) :- d(V), W = plus(V, 1).", []Var{"W"}, -1, "d(V)^f ; W = plus(V, 1)"},
		{"a repeated variable is free at both occurrences", "loop(X) :- e(X, X).", nil, -1, "e(X, X)^ff"},
		{"negated atoms last, the negated pivot left out", "iso(X) :- n(X), not b(X), not c(X).", []Var{"X"}, 1, "n(X)^b ; not c(X)"},
		{"computed arguments wait for their variables", "p(X) :- a(plus(Y, 1), X), b(Y).", nil, -1, "b(Y)^f ; a(plus(Y, 1), X)^bf"},
	} {
		prog, err := ParseProgram(c.rule)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plan, err := PlanRuleFrom(prog.Rules[0], c.bound, c.skip)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := renderPlan(plan); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		for i, st := range plan.Steps {
			if st.Kind == StepMatch && prog.Rules[0].Body[st.Lit].(LitAtom).Atom.String() != st.Atom.String() {
				t.Errorf("%s: step %d: Lit %d is not %s", c.name, i, st.Lit, st.Atom)
			}
		}
		for i, na := range plan.Negs {
			if prog.Rules[0].Body[plan.NegLits[i]].(LitAtom).Atom.String() != na.String() {
				t.Errorf("%s: NegLits[%d] = %d is not %s", c.name, i, plan.NegLits[i], na)
			}
		}
	}

	// The grounder's plan keeps the textual order whatever the constants.
	prog, err := ParseProgram("hub(Y) :- e(X, Y), e(0, Y).")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRule(prog.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Atom.String() != "e(X, Y)" || plan.Steps[1].Atom.String() != "e(0, Y)" {
		t.Errorf("PlanRule reordered the body: %v", plan.Steps)
	}

	for _, unsafe := range []string{"p(X) :- q(Y).", "p(X) :- q(X), not r(Z).", "p(X) :- q(X), Y < 3.", "p(X) :- a(plus(Y, 1), X)."} {
		prog, err := ParseProgram(unsafe)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanRuleFrom(prog.Rules[0], nil, -1); err == nil {
			t.Errorf("%s: PlanRuleFrom accepted an unsafe rule", unsafe)
		}
	}
}
