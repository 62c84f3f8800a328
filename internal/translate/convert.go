// Package translate implements the paper's constructive translations between
// the algebraic and deductive paradigms — the computational content of its
// equivalence results:
//
//   - AlgebraToDatalog: algebra / IFP-algebra expressions to deductive
//     programs (the "naive and quite well-known algorithm" of Section 5;
//     Proposition 5.1 pairs it with the inflationary semantics).
//   - CoreToDatalog: algebra= programs to deductive programs evaluated under
//     the valid semantics (Proposition 5.4).
//   - StepIndex: the index transformation of Proposition 5.2, embedding
//     inflationary evaluation into the valid semantics.
//   - DatalogToCore: safe deductive programs to algebra= programs via
//     simulation functions (Proposition 6.1).
//   - StratifiedToPositiveIFP: stratified programs to positive IFP-algebra
//     programs (the constructive direction of Theorem 4.3).
//
// Relations cross the paradigm boundary under a fixed convention: a
// predicate of arity 1 is the set of its argument values, a predicate of
// arity n ≥ 2 is a set of n-tuples, and a 0-ary predicate is either the
// empty set or the singleton {()}.
package translate

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/rel"
	"algrec/internal/semantics"
	"algrec/internal/value"
)

// FactsToSet converts ground facts of one predicate to a set under the
// arity convention.
func FactsToSet(facts []datalog.Fact) value.Set {
	elems := make([]value.Value, 0, len(facts))
	for _, f := range facts {
		elems = append(elems, rel.FactElem(f))
	}
	return value.NewSet(elems...)
}

// SetToFacts converts a set back to ground facts of the given predicate and
// arity. It fails if an element does not fit the arity (e.g. a non-tuple
// element for arity 2).
func SetToFacts(pred string, s value.Set, arity int) ([]datalog.Fact, error) {
	var out []datalog.Fact
	for _, e := range s.Elems() {
		switch arity {
		case 1:
			out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{e}})
		default:
			t, ok := e.(value.Tuple)
			if !ok || t.Len() != arity {
				return nil, fmt.Errorf("translate: element %v of %s does not match arity %d", e, pred, arity)
			}
			out = append(out, datalog.Fact{Pred: pred, Args: t.Elems()})
		}
	}
	return out, nil
}

// TrueSet extracts the certainly-true relation of a predicate from a
// three-valued interpretation as a set under the arity convention.
func TrueSet(in *semantics.Interp, pred string) value.Set {
	return FactsToSet(in.TrueFacts(pred))
}

// UndefSet extracts the undefined part of a predicate from a three-valued
// interpretation as a set under the arity convention.
func UndefSet(in *semantics.Interp, pred string) value.Set {
	return FactsToSet(in.UndefFacts(pred))
}

// Arities returns the arity of every predicate in the program, and an error
// if a predicate is used at two different arities.
func Arities(p *datalog.Program) (map[string]int, error) {
	out := map[string]int{}
	note := func(a datalog.Atom) error {
		if prev, ok := out[a.Pred]; ok && prev != len(a.Args) {
			return fmt.Errorf("translate: predicate %s used at arities %d and %d", a.Pred, prev, len(a.Args))
		}
		out[a.Pred] = len(a.Args)
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head); err != nil {
			return nil, err
		}
		for _, l := range r.Body {
			if la, ok := l.(datalog.LitAtom); ok {
				if err := note(la.Atom); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// SplitProgram separates the program into EDB relations (predicates defined
// by ground facts only) converted to an algebra database, and the remaining
// rules plus any facts for IDB predicates.
func SplitProgram(p *datalog.Program) (db algebra.DB, idbFacts map[string][]datalog.Fact, rules []datalog.Rule, err error) {
	isIDB := map[string]bool{}
	for _, r := range p.Rules {
		if !r.IsFact() {
			isIDB[r.Head.Pred] = true
		}
	}
	edbFacts := map[string][]datalog.Fact{}
	idbFacts = map[string][]datalog.Fact{}
	for _, r := range p.Rules {
		if !r.IsFact() {
			rules = append(rules, r)
			continue
		}
		f, ferr := datalog.EvalGroundAtom(r.Head, nil)
		if ferr != nil {
			return nil, nil, nil, fmt.Errorf("translate: fact %s is not ground: %w", r.Head, ferr)
		}
		if isIDB[f.Pred] {
			idbFacts[f.Pred] = append(idbFacts[f.Pred], f)
		} else {
			edbFacts[f.Pred] = append(edbFacts[f.Pred], f)
		}
	}
	db = algebra.DB{}
	for pred, fs := range edbFacts {
		db[pred] = FactsToSet(fs)
	}
	// EDB predicates that occur only in rule bodies have no facts at all;
	// they denote the empty relation.
	for _, r := range p.Rules {
		for _, l := range r.Body {
			la, ok := l.(datalog.LitAtom)
			if !ok {
				continue
			}
			if isIDB[la.Atom.Pred] {
				continue
			}
			if _, ok := db[la.Atom.Pred]; !ok {
				db[la.Atom.Pred] = value.EmptySet
			}
		}
	}
	return db, idbFacts, rules, nil
}

// DBFacts converts an algebra database to ground facts: each relation
// becomes a unary predicate holding its elements. It is the inverse
// direction used when shipping a database to the deductive side
// (Propositions 5.1/5.4, where every subexpression denotes a set of
// elements and all predicates are unary).
func DBFacts(db algebra.DB) []datalog.Fact {
	var out []datalog.Fact
	for name, s := range db {
		for _, e := range s.Elems() {
			out = append(out, datalog.Fact{Pred: name, Args: []value.Value{e}})
		}
	}
	datalog.SortFacts(out)
	return out
}
