package datalog

import (
	"fmt"
	"sort"
)

// DepEdge is one predicate-dependency edge: the head predicate depends on the
// body predicate, positively or through negation.
type DepEdge struct {
	From, To string // From's rules mention To in a body
	Negative bool
}

// DepGraph returns the predicate dependency graph of the program, with one
// edge per (from, to, sign) triple, sorted deterministically.
func DepGraph(p *Program) []DepEdge {
	type key struct {
		from, to string
		neg      bool
	}
	seen := map[key]bool{}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			la, ok := l.(LitAtom)
			if !ok {
				continue
			}
			seen[key{r.Head.Pred, la.Atom.Pred, la.Neg}] = true
		}
	}
	out := make([]DepEdge, 0, len(seen))
	for k := range seen {
		out = append(out, DepEdge{From: k.from, To: k.to, Negative: k.neg})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return !a.Negative && b.Negative
	})
	return out
}

// ErrNotStratified is returned by Stratify for programs with recursion
// through negation.
type ErrNotStratified struct {
	// Pred is a predicate on a negative cycle witnessing non-stratifiability.
	Pred string
}

// Error implements error.
func (e ErrNotStratified) Error() string {
	return fmt.Sprintf("datalog: program is not stratified: predicate %s depends negatively on itself", e.Pred)
}

// Stratify computes a stratification of the program: a map from predicate
// name to stratum number (0-based) such that positive dependencies stay
// within or below a stratum and negative dependencies go strictly below. It
// returns ErrNotStratified if the program has recursion through negation
// (such as the cyclic WIN game of the paper's Example 3).
func Stratify(p *Program) (map[string]int, error) {
	preds := p.Preds()
	stratum := make(map[string]int, len(preds))
	for _, q := range preds {
		stratum[q] = 0
	}
	edges := DepGraph(p)
	// Bellman-Ford style relaxation: at most len(preds) rounds of changes are
	// possible in a stratifiable program, since strata are bounded by the
	// number of predicates.
	for round := 0; ; round++ {
		changed := false
		for _, e := range edges {
			min := stratum[e.To]
			if e.Negative {
				min++
			}
			if stratum[e.From] < min {
				stratum[e.From] = min
				changed = true
			}
		}
		if !changed {
			return stratum, nil
		}
		if round > len(preds) {
			// Some predicate's stratum exceeded the bound: find a witness.
			for _, q := range preds {
				if stratum[q] > len(preds) {
					return nil, ErrNotStratified{Pred: q}
				}
			}
			return nil, ErrNotStratified{Pred: edges[0].From}
		}
	}
}

// IsStratified reports whether the program admits a stratification.
func IsStratified(p *Program) bool {
	_, err := Stratify(p)
	return err == nil
}

// IsPositive reports whether no rule of the program negates an atom — the
// programs the minimal-model semantics is defined on.
func IsPositive(p *Program) bool {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if la, ok := l.(LitAtom); ok && la.Neg {
				return false
			}
		}
	}
	return true
}

// Strata groups the program's rules by the stratum of their head predicate,
// lowest first. Facts for EDB predicates land in stratum 0.
func Strata(p *Program) ([][]Rule, map[string]int, error) {
	stratum, err := Stratify(p)
	if err != nil {
		return nil, nil, err
	}
	max := 0
	for _, s := range stratum {
		if s > max {
			max = s
		}
	}
	out := make([][]Rule, max+1)
	for _, r := range p.Rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, stratum, nil
}
