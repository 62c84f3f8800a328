package datalog

import (
	"fmt"

	"algrec/internal/builtin"
)

// PlanStepKind discriminates the steps of a BodyPlan.
type PlanStepKind uint8

// The plan step kinds.
const (
	// StepMatch matches a positive atom against known facts, binding its
	// bare-variable arguments.
	StepMatch PlanStepKind = iota
	// StepAssign evaluates a term and binds it to a fresh variable.
	StepAssign
	// StepTest evaluates a ground comparison.
	StepTest
)

// PlanStep is one element of a rule body's executable evaluation order.
type PlanStep struct {
	Kind PlanStepKind

	Atom   Atom // StepMatch: the atom to match
	PosIdx int  // StepMatch: index among the rule's positive atoms

	AssignVar Var  // StepAssign: the variable bound
	Term      Term // StepAssign: the term evaluated

	Cmp LitCmp // StepTest: the comparison evaluated
}

// BodyPlan is an executable evaluation order for a rule body: positive atoms
// and comparisons interleaved so every term is evaluable when reached, with
// negated atoms (whose variables are then all bound) collected at the end.
// Its existence is the operational counterpart of the rule being safe in the
// sense of Definition 4.1.
type BodyPlan struct {
	Steps  []PlanStep
	Negs   []Atom
	NumPos int
}

// PlanRule computes an executable order for the rule. It returns an error
// when no order exists: the rule is unsafe, or uses a comparison that no
// order can evaluate.
func PlanRule(r Rule) (BodyPlan, error) {
	bound := map[Var]bool{}
	allBound := func(t Term) bool {
		for v := range VarsOfTerm(t) {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	var plan BodyPlan
	type pending struct {
		lit  Literal
		done bool
	}
	pend := make([]pending, len(r.Body))
	for i, l := range r.Body {
		pend[i] = pending{lit: l}
	}
	remaining := 0
	for _, p := range pend {
		if la, ok := p.lit.(LitAtom); !ok || !la.Neg {
			remaining++
		}
	}
	for remaining > 0 {
		progressed := false
		for i := range pend {
			if pend[i].done {
				continue
			}
			switch l := pend[i].lit.(type) {
			case LitAtom:
				if l.Neg {
					continue // collected after the loop
				}
				// A positive atom is ready when its non-variable argument
				// terms are evaluable; bare variable arguments are bound by
				// matching (interpreted functions cannot be inverted).
				ready := true
				for _, a := range l.Atom.Args {
					if _, isVar := a.(Var); isVar {
						continue
					}
					if !allBound(a) {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				plan.Steps = append(plan.Steps, PlanStep{Kind: StepMatch, Atom: l.Atom, PosIdx: plan.NumPos})
				plan.NumPos++
				for _, a := range l.Atom.Args {
					if v, isVar := a.(Var); isVar {
						bound[v] = true
					}
				}
				pend[i].done = true
				remaining--
				progressed = true
			case LitCmp:
				st, ok := cmpStep(l, bound, allBound)
				if !ok {
					continue
				}
				if st.Kind == StepAssign {
					bound[st.AssignVar] = true
				}
				plan.Steps = append(plan.Steps, st)
				pend[i].done = true
				remaining--
				progressed = true
			default:
				panic(fmt.Sprintf("datalog: unknown literal %T", l))
			}
		}
		if !progressed {
			return BodyPlan{}, fmt.Errorf("datalog: rule %s has no executable literal order (unsafe rule)", r)
		}
	}
	for _, p := range pend {
		la, ok := p.lit.(LitAtom)
		if !ok || !la.Neg {
			continue
		}
		for v := range VarsOfAtom(la.Atom) {
			if !bound[v] {
				return BodyPlan{}, fmt.Errorf("datalog: rule %s: variable %s of negated atom is not restricted", r, v)
			}
		}
		plan.Negs = append(plan.Negs, la.Atom)
	}
	for v := range VarsOfAtom(r.Head) {
		if !bound[v] {
			return BodyPlan{}, fmt.Errorf("datalog: rule %s: head variable %s is not restricted", r, v)
		}
	}
	return plan, nil
}

// EntryStep is one step of an EntryPlan: a PlanStep and, for a match, the
// literal's index in the rule's body and the atom's adornment — Bound[k]
// reports that argument k is determined before the atom is matched.
type EntryStep struct {
	PlanStep
	Lit   int
	Bound []bool
}

// EntryPlan is an executable order for a rule body entered with some
// variables already bound (PlanRuleFrom): the steps, then the negated atoms
// with their body indexes. It is a type of its own so that BodyPlan and
// PlanStep — which the grounder copies in its innermost loop — stay as small
// as the grounder needs them.
type EntryPlan struct {
	Steps   []EntryStep
	Negs    []Atom
	NegLits []int
}

// PlanRuleFrom computes an executable order for the body of r as seen from
// one entry pattern: the variables in bound are known before the body runs,
// and body literal skip (an index into r.Body, -1 for none) has already been
// matched and is left out. These are the entry patterns of incremental
// maintenance (internal/ivm): a from-scratch build enters with nothing bound
// and nothing skipped, a delta pivot on literal i enters with that atom's
// bare variables bound and i skipped, and a head-bound re-derivation enters
// with the head's bare variables bound.
//
// Where PlanRule keeps the textual order (the grounder depends on it), the
// order here follows the binding pattern — each positive atom's adornment,
// the bound/free status of its argument positions when it runs:
// comparisons and assignments run as soon as they are evaluable; the next
// positive atom is a fully bound one if there is one (it is a membership
// test), otherwise the ready atom with the most bound argument positions —
// constants, evaluable terms and already-bound variables — with ties broken
// in textual order. Negated atoms are collected at the end, as in PlanRule.
//
// An error means no order exists from this entry (the rule is unsafe).
func PlanRuleFrom(r Rule, bound []Var, skip int) (EntryPlan, error) {
	known := make(map[Var]bool, len(bound))
	for _, v := range bound {
		known[v] = true
	}
	evaluable := func(t Term) bool {
		for v := range VarsOfTerm(t) {
			if !known[v] {
				return false
			}
		}
		return true
	}
	done := make([]bool, len(r.Body))
	remaining := 0
	for i, l := range r.Body {
		if la, ok := l.(LitAtom); i == skip || (ok && la.Neg) {
			done[i] = true
			continue
		}
		remaining++
	}
	var plan EntryPlan
	numPos := 0
	for remaining > 0 {
		// Comparisons first, to a fixpoint: an assignment may make the next
		// one evaluable.
		for progressed := true; progressed; {
			progressed = false
			for i, l := range r.Body {
				lc, ok := l.(LitCmp)
				if !ok || done[i] {
					continue
				}
				st, ok := cmpStep(lc, known, evaluable)
				if !ok {
					continue
				}
				if st.Kind == StepAssign {
					known[st.AssignVar] = true
				}
				plan.Steps = append(plan.Steps, EntryStep{PlanStep: st})
				done[i] = true
				remaining--
				progressed = true
			}
		}
		if remaining == 0 {
			break
		}
		best, bestBound, bestFull := -1, -1, false
		var bestAdorn []bool
		for i, l := range r.Body {
			la, ok := l.(LitAtom)
			if !ok || done[i] {
				continue
			}
			adorn, ready := adornment(la.Atom, known, evaluable)
			if !ready {
				continue
			}
			n := 0
			for _, b := range adorn {
				if b {
					n++
				}
			}
			full := n == len(adorn)
			if best < 0 || (full && !bestFull) || (full == bestFull && n > bestBound) {
				best, bestBound, bestFull, bestAdorn = i, n, full, adorn
			}
		}
		if best < 0 {
			return EntryPlan{}, fmt.Errorf("datalog: rule %s has no executable literal order (unsafe rule)", r)
		}
		atom := r.Body[best].(LitAtom).Atom
		plan.Steps = append(plan.Steps, EntryStep{PlanStep: PlanStep{Kind: StepMatch, Atom: atom, PosIdx: numPos}, Lit: best, Bound: bestAdorn})
		numPos++
		for _, a := range atom.Args {
			if v, isVar := a.(Var); isVar {
				known[v] = true
			}
		}
		done[best] = true
		remaining--
	}
	for i, l := range r.Body {
		la, ok := l.(LitAtom)
		if !ok || !la.Neg || i == skip {
			continue
		}
		for v := range VarsOfAtom(la.Atom) {
			if !known[v] {
				return EntryPlan{}, fmt.Errorf("datalog: rule %s: variable %s of negated atom is not restricted", r, v)
			}
		}
		plan.Negs = append(plan.Negs, la.Atom)
		plan.NegLits = append(plan.NegLits, i)
	}
	for v := range VarsOfAtom(r.Head) {
		if !known[v] {
			return EntryPlan{}, fmt.Errorf("datalog: rule %s: head variable %s is not restricted", r, v)
		}
	}
	return plan, nil
}

// adornment returns the binding pattern of a positive atom under the known
// variables — true for argument positions whose value is determined before
// the atom is matched — and whether the atom is ready to run: its
// non-variable arguments must be evaluable, because interpreted functions
// cannot be inverted. A variable the atom itself repeats counts as free at
// every occurrence: the first occurrence binds it, the rest compare.
func adornment(a Atom, known map[Var]bool, evaluable func(Term) bool) (adorn []bool, ready bool) {
	adorn = make([]bool, len(a.Args))
	for k, t := range a.Args {
		if v, isVar := t.(Var); isVar {
			adorn[k] = known[v]
			continue
		}
		if !evaluable(t) {
			return nil, false
		}
		adorn[k] = true
	}
	return adorn, true
}

// cmpStep classifies a comparison literal under the known variables: a test
// when both sides are evaluable, an assignment when it is an equation with an
// unbound variable on one side and an evaluable term on the other; ok is
// false while it is neither.
func cmpStep(l LitCmp, known map[Var]bool, evaluable func(Term) bool) (st PlanStep, ok bool) {
	lv, lIsVar := l.L.(Var)
	rv, rIsVar := l.R.(Var)
	switch {
	case evaluable(l.L) && evaluable(l.R):
		return PlanStep{Kind: StepTest, Cmp: l}, true
	case l.Op == builtin.Eq && lIsVar && !known[lv] && evaluable(l.R):
		return PlanStep{Kind: StepAssign, AssignVar: lv, Term: l.R}, true
	case l.Op == builtin.Eq && rIsVar && !known[rv] && evaluable(l.L):
		return PlanStep{Kind: StepAssign, AssignVar: rv, Term: l.L}, true
	}
	return PlanStep{}, false
}
