package datalog

import (
	"fmt"
	"sort"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

// This file implements Definition 4.1 of the paper: range formulas and safe
// rules. A rule body is a conjunction of literals; the body is a range
// formula restricting a set of variables, computed as the least fixpoint of
// the construction rules:
//
//	basis a:  a positive atom restricts each variable that occurs as one of
//	          its arguments (inside an argument term);
//	basis b / rule 4:  x = exp (or exp = x) restricts x once every variable
//	          of exp is already restricted;
//	rule 2:   a comparison exp1 op exp2 is admissible once all its variables
//	          are restricted (it restricts nothing new, except as above);
//	rule 3:   a negated atom is admissible once all its variables are
//	          restricted.
//
// A rule is safe when every variable occurring anywhere in it is restricted.
// Note one deliberate strengthening over the paper: the paper's basis (a) is
// R(x1) for a variable argument; we also let a positive atom restrict
// variables nested inside constructor-style argument terms only when the
// argument is a bare variable, because interpreted functions cannot be
// inverted during evaluation (matching f(X) against a value would require
// solving for X). Variables inside complex arguments of positive atoms must
// therefore be restricted elsewhere; this keeps safe rules executable.

// RestrictedVars returns the set of variables of the body restricted in the
// sense of Definition 4.1.
func RestrictedVars(body []Literal) map[Var]bool {
	restricted := map[Var]bool{}
	allBound := func(t Term) bool {
		for v := range VarsOfTerm(t) {
			if !restricted[v] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, l := range body {
			switch ll := l.(type) {
			case LitAtom:
				if ll.Neg {
					continue
				}
				for _, arg := range ll.Atom.Args {
					if v, ok := arg.(Var); ok && !restricted[v] {
						restricted[v] = true
						changed = true
					}
				}
			case LitCmp:
				if ll.Op != builtin.Eq {
					continue
				}
				if v, ok := ll.L.(Var); ok && !restricted[v] && allBound(ll.R) {
					restricted[v] = true
					changed = true
				}
				if v, ok := ll.R.(Var); ok && !restricted[v] && allBound(ll.L) {
					restricted[v] = true
					changed = true
				}
			default:
				panic(fmt.Sprintf("datalog: unknown literal %T", l))
			}
		}
	}
	return restricted
}

// UnsafeVars returns the variables of the rule that are not restricted by its
// body, sorted; the rule is safe iff the result is empty.
func UnsafeVars(r Rule) []Var {
	restricted := RestrictedVars(r.Body)
	var out []Var
	for v := range VarsOfRule(r) {
		if !restricted[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckRuleSafe reports whether r is safe per Definition 4.1, returning a
// descriptive error naming the first unrestricted variable otherwise.
func CheckRuleSafe(r Rule) error {
	if vs := UnsafeVars(r); len(vs) > 0 {
		return fmt.Errorf("datalog: unsafe rule %s: variable %s is not restricted by a range formula", r, vs[0])
	}
	return nil
}

// CheckProgramSafe reports whether every rule of p is safe.
func CheckProgramSafe(p *Program) error {
	for _, r := range p.Rules {
		if err := CheckRuleSafe(r); err != nil {
			return err
		}
	}
	return nil
}

// MakeSafe implements the transformation of Proposition 4.2: every variable
// of a rule that is not restricted by the rule's own body is additionally
// restricted by the unary domain predicate domPred, which must enumerate (a
// sufficient finite part of) the initial model's domain. The result is a safe
// program that computes the same answers as p whenever p is domain
// independent and domPred covers the active domain.
func MakeSafe(p *Program, domPred string) *Program {
	out := &Program{}
	for _, r := range p.Rules {
		restricted := RestrictedVars(r.Body)
		var guards []Literal
		vars := make([]Var, 0, len(VarsOfRule(r)))
		for v := range VarsOfRule(r) {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		for _, v := range vars {
			if !restricted[v] {
				guards = append(guards, Pos(domPred, v))
			}
		}
		nr := Rule{Head: r.Head, Body: append(guards, r.Body...)}
		out.Rules = append(out.Rules, nr)
	}
	return out
}

// DomainFacts returns dom facts for every constant value appearing in the
// program's facts and rules; together with MakeSafe this realizes the
// Proposition 4.2 construction for the finite, function-free case. (When the
// program uses interpreted functions the caller must extend the domain
// itself, since the paper's S_i predicates are then infinite.)
func DomainFacts(p *Program, domPred string) []Fact {
	seen := map[string]Fact{}
	var walk func(t Term)
	walk = func(t Term) {
		switch tt := t.(type) {
		case Const:
			key := tt.V.String()
			if _, ok := seen[key]; !ok {
				seen[key] = Fact{Pred: domPred, Args: []value.Value{tt.V}}
			}
		case Apply:
			for _, a := range tt.Args {
				walk(a)
			}
		case Var:
		default:
			panic(fmt.Sprintf("datalog: unknown term %T", t))
		}
	}
	for _, r := range p.Rules {
		for _, a := range r.Head.Args {
			walk(a)
		}
		for _, l := range r.Body {
			switch ll := l.(type) {
			case LitAtom:
				for _, a := range ll.Atom.Args {
					walk(a)
				}
			case LitCmp:
				walk(ll.L)
				walk(ll.R)
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Fact, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}
