package datalog

import (
	"testing"

	"algrec/internal/value"
)

// These tests exercise the Section 4 domain-(in)dependence story around
// MakeSafe (Proposition 4.2). The paper's own example: "the answer to a
// query of the form Q(x)?, where Q is defined by the rule ¬R(x) → Q(x),
// changes if the domain of x is changed."

// evalWithDomain evaluates the MakeSafe'd program with the given universe as
// dom facts and returns q's answer keys. The evaluation machinery lives in
// internal/semantics; to avoid an import cycle in tests this helper performs
// a tiny stratified evaluation inline (the programs here are semipositive).
func evalWithDomain(t *testing.T, p *Program, universe []int64) map[string]bool {
	t.Helper()
	sp := MakeSafe(p, "dom")
	for _, u := range universe {
		sp.AddFacts(Fact{Pred: "dom", Args: []value.Value{value.Int(u)}})
	}
	// Inline naive stratified evaluation for the two-stratum shape used in
	// these tests: first derive all positive facts, then apply rules with
	// negation against the fixed positive result.
	facts := map[string]bool{}
	for _, r := range sp.Rules {
		if r.IsFact() {
			f, err := EvalGroundAtom(r.Head, nil)
			if err != nil {
				t.Fatal(err)
			}
			facts[f.Key()] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for _, r := range sp.Rules {
			if r.IsFact() {
				continue
			}
			for _, b := range enumerate(t, r, facts) {
				f, err := EvalGroundAtom(r.Head, b)
				if err != nil {
					t.Fatal(err)
				}
				if !facts[f.Key()] {
					facts[f.Key()] = true
					changed = true
				}
			}
		}
	}
	out := map[string]bool{}
	for k := range facts {
		if len(k) > 2 && k[0] == 'q' && k[1] == '(' {
			out[k] = true
		}
	}
	return out
}

// enumerate instantiates a rule body against the fact set (naive, adequate
// for these tiny programs).
func enumerate(t *testing.T, r Rule, facts map[string]bool) []Binding {
	t.Helper()
	plan, err := PlanRule(r)
	if err != nil {
		t.Fatal(err)
	}
	// collect candidate values from dom facts
	var universe []value.Value
	for k := range facts {
		var f Fact
		if len(k) > 4 && k[:4] == "dom(" {
			f = Fact{Pred: "dom"}
			// parse back the single int argument
			var n int64
			for i := 4; i < len(k)-1; i++ {
				if k[i] == '-' {
					continue
				}
				n = n*10 + int64(k[i]-'0')
			}
			if k[4] == '-' {
				n = -n
			}
			f.Args = []value.Value{value.Int(n)}
			universe = append(universe, f.Args[0])
		}
	}
	bindings := []Binding{{}}
	for _, st := range plan.Steps {
		var next []Binding
		switch st.Kind {
		case StepMatch:
			for _, b := range bindings {
				for _, v := range universe {
					nb := b.Clone()
					ok := true
					for _, arg := range st.Atom.Args {
						av, isVar := arg.(Var)
						if isVar {
							if bound, has := nb[av]; has {
								if !value.Equal(bound, v) {
									ok = false
								}
							} else {
								nb[av] = v
							}
						}
					}
					if !ok {
						continue
					}
					f, err := EvalGroundAtom(st.Atom, nb)
					if err != nil {
						continue
					}
					if facts[f.Key()] {
						next = append(next, nb)
					}
				}
			}
		case StepAssign:
			for _, b := range bindings {
				v, err := EvalTerm(st.Term, b)
				if err != nil {
					continue
				}
				nb := b.Clone()
				nb[st.AssignVar] = v
				next = append(next, nb)
			}
		case StepTest:
			for _, b := range bindings {
				lv, err1 := EvalTerm(st.Cmp.L, b)
				rv, err2 := EvalTerm(st.Cmp.R, b)
				if err1 != nil || err2 != nil {
					continue
				}
				if st.Cmp.Op.Holds(lv.Compare(rv)) {
					next = append(next, b)
				}
			}
		}
		bindings = next
	}
	var out []Binding
	for _, b := range bindings {
		ok := true
		for _, na := range plan.Negs {
			f, err := EvalGroundAtom(na, b)
			if err != nil || facts[f.Key()] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// TestDomainDependentQuery is the paper's Section 4 example: q(X) :- not
// r(X) is domain dependent — enlarging the domain changes the answer — and
// MakeSafe makes the dependence explicit through the dom predicate.
func TestDomainDependentQuery(t *testing.T) {
	p := MustParse("r(1).\nq(X) :- not r(X).\n")
	small := evalWithDomain(t, p.Clone(), []int64{1, 2})
	large := evalWithDomain(t, p.Clone(), []int64{1, 2, 3, 4})
	if len(small) != 1 || !small["q(2)"] {
		t.Errorf("small domain answer = %v", small)
	}
	if len(large) != 3 {
		t.Errorf("large domain answer = %v", large)
	}
	if len(small) == len(large) {
		t.Error("q(X) :- not r(X) should be domain dependent")
	}
}

// TestDomainIndependentQuery: a safe query's answer is insensitive to domain
// growth ("domain independent queries ... are insensitive to the properties
// of elements outside this window").
func TestDomainIndependentQuery(t *testing.T) {
	p := MustParse("r(1). r(2). s(2).\nq(X) :- r(X), not s(X).\n")
	small := evalWithDomain(t, p.Clone(), []int64{1, 2})
	large := evalWithDomain(t, p.Clone(), []int64{1, 2, 3, 4, 5})
	if len(small) != 1 || !small["q(1)"] {
		t.Errorf("small domain answer = %v", small)
	}
	if len(large) != len(small) {
		t.Errorf("safe query changed with the domain: %v vs %v", small, large)
	}
}
