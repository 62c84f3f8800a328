package core

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// Truth is the three-valued membership status of an element in a defined
// set under the valid interpretation.
type Truth uint8

// The membership truth values. The zero value is Undef.
const (
	Undef Truth = iota
	True
	False
)

// String returns "true", "false" or "undef".
func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	case Undef:
		return "undef"
	default:
		return "Truth(?)"
	}
}

// Result is the valid interpretation of an algebra= program on a database:
// for every defined constant, the set of elements certainly in it (Lower)
// and possibly in it (Upper). Lower ⊆ Upper; elements of Upper − Lower have
// undefined membership, and the program is well defined on the database
// exactly when the two coincide everywhere.
type Result struct {
	Lower, Upper map[string]value.Set

	db     algebra.DB
	budget algebra.Budget
}

// Member returns the membership status MEM(v, name) in the valid
// interpretation: True if certainly in, False if certainly out, Undef
// otherwise.
func (r *Result) Member(name string, v value.Value) Truth {
	lo, ok := r.Lower[name]
	if !ok {
		if s, ok := r.db[name]; ok {
			if s.Has(v) {
				return True
			}
			return False
		}
		return False
	}
	if lo.Has(v) {
		return True
	}
	if !r.Upper[name].Has(v) {
		return False
	}
	return Undef
}

// IsTotal reports whether the membership function of the named set is
// totally defined (Lower == Upper).
func (r *Result) IsTotal(name string) bool {
	return value.Equal(r.Lower[name], r.Upper[name])
}

// WellDefined reports whether every defined set is total: the executable
// counterpart of "the program has an initial valid model" for the evaluated
// database (Proposition 3.2 makes the database-independent question
// undecidable).
func (r *Result) WellDefined() bool {
	for name := range r.Lower {
		if !r.IsTotal(name) {
			return false
		}
	}
	return true
}

// UndefElems returns the elements of the named set with undefined
// membership (Upper − Lower).
func (r *Result) UndefElems(name string) value.Set {
	return r.Upper[name].Diff(r.Lower[name])
}

// Set returns the named set's certain content (its Lower bound); for a well
// defined program this is the set's content in the initial valid model.
func (r *Result) Set(name string) value.Set { return r.Lower[name] }

// evaluator reads expressions three-valuedly: a defined constant reads pos at
// a positive occurrence and neg at a negative one — inside an odd number of
// subtracted positions and flips (algebra.Evaluator.Pos, Neg). With pos =
// Lower and neg = Upper it computes a certain lower bound; with the
// environments swapped, a possible upper bound.
func evaluator(db algebra.DB, budget algebra.Budget, pos, neg map[string]value.Set) *algebra.Evaluator {
	ev := algebra.NewEvaluator(db, budget)
	ev.Pos, ev.Neg = pos, neg
	return ev
}

// gamma computes the set-level Γ operator: the least (inflationary) joint
// fixpoint of the defining equations where negative occurrences of defined
// constants read the fixed environment neg. It is the lifting of the Section
// 2.2 rule "only facts not in T are allowed to be used negatively": with neg
// = T, an element is subtracted only if it certainly belongs to the
// subtrahend, so the result is the set of possible members; with neg = the
// possible sets, the result is the certain members. Its rounds are
// Gauss-Seidel: each definition reads the sets the ones before it in the
// round produced.
func gamma(p *Program, db algebra.DB, neg map[string]value.Set, budget algebra.Budget, st *obsv.CoreEvalStats) (map[string]value.Set, error) {
	lower := map[string]value.Set{}
	for _, d := range p.Defs {
		lower[d.Name] = value.EmptySet
	}
	ev := evaluator(db, budget, lower, neg)
	st.Gammas++
	for round := 0; ; round++ {
		if round >= budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: defining equations did not reach a fixpoint within %d rounds", algebra.ErrBudget, budget.MaxIFPIters)
		}
		if err := budget.Stop(); err != nil {
			return nil, err
		}
		st.Rounds++
		st.Evals += len(p.Defs)
		changed := false
		for _, d := range p.Defs {
			s, err := ev.Eval(d.Body)
			if err != nil {
				return nil, err
			}
			next := lower[d.Name].Union(s)
			if next.Len() > budget.MaxSetSize {
				return nil, fmt.Errorf("%w: defined set %q grew past MaxSetSize %d (the fixed point may be infinite)", algebra.ErrBudget, d.Name, budget.MaxSetSize)
			}
			if next.Len() != lower[d.Name].Len() {
				lower[d.Name] = next
				changed = true
			}
		}
		if !changed {
			return lower, nil
		}
	}
}

// EvalValid computes the valid interpretation of the program on the
// database: the Section 2.2 alternating computation lifted to defined sets.
// The program is inlined first; recursive parameterized definitions are
// rejected (ErrRecursiveParams).
func EvalValid(p *Program, db algebra.DB, budget algebra.Budget) (*Result, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, err
	}
	budget = budget.WithDefaults()
	obs := obsv.Default()
	st := obsv.CoreEvalStats{Semantics: "valid", Defs: len(q.Defs)}
	t := map[string]value.Set{}
	for _, d := range q.Defs {
		t[d.Name] = value.EmptySet
	}
	var u map[string]value.Set
	for round := 0; ; round++ {
		if round >= budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: valid-model alternation did not converge within %d rounds", algebra.ErrBudget, budget.MaxIFPIters)
		}
		if err := budget.Stop(); err != nil {
			return nil, err
		}
		u, err = gamma(q, db, t, budget, &st)
		if err != nil {
			return nil, err
		}
		t2, err := gamma(q, db, u, budget, &st)
		if err != nil {
			return nil, err
		}
		if sameSets(t, t2) {
			break
		}
		t = t2
	}
	if obs != nil {
		obs.Collect(st)
	}
	return &Result{Lower: t, Upper: u, db: db, budget: budget}, nil
}

// EvalInflationary evaluates the program under the inflationary reading of
// its equations: all occurrences of defined constants, positive or negative,
// read the current accumulated content ("was not derived so far"). It is the
// semantics under which Proposition 5.1's translation preserves IFP-algebra
// queries. Its rounds are Jacobi: every definition reads the sets of the
// round before. Inflationary evaluation is not stratifiable — with pos = neg
// = cur the definitions interact through negative occurrences too (def A =
// {1} − B; def B = {1} gives A = {1} under global rounds, ∅ under strata) —
// so every round evaluates every definition.
func EvalInflationary(p *Program, db algebra.DB, budget algebra.Budget) (map[string]value.Set, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, err
	}
	budget = budget.WithDefaults()
	obs := obsv.Default()
	st := obsv.CoreEvalStats{Semantics: "inflationary", Defs: len(q.Defs), Gammas: 1}
	cur := map[string]value.Set{}
	for _, d := range q.Defs {
		cur[d.Name] = value.EmptySet
	}
	for round := 0; ; round++ {
		if round >= budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: inflationary evaluation did not converge within %d rounds", algebra.ErrBudget, budget.MaxIFPIters)
		}
		if err := budget.Stop(); err != nil {
			return nil, err
		}
		ev := evaluator(db, budget, cur, cur)
		next := map[string]value.Set{}
		changed := false
		st.Rounds++
		st.Evals += len(q.Defs)
		for _, d := range q.Defs {
			s, err := ev.Eval(d.Body)
			if err != nil {
				return nil, err
			}
			ns := cur[d.Name].Union(s)
			if ns.Len() > budget.MaxSetSize {
				return nil, fmt.Errorf("%w: defined set %q grew past MaxSetSize %d", algebra.ErrBudget, d.Name, budget.MaxSetSize)
			}
			next[d.Name] = ns
			if ns.Len() != cur[d.Name].Len() {
				changed = true
			}
		}
		cur = next
		if !changed {
			if obs != nil {
				obs.Collect(st)
			}
			return cur, nil
		}
	}
}

// QueryLower evaluates an expression over the result's database and defined
// sets, returning the certain (lower-bound) answer.
func (r *Result) QueryLower(e algebra.Expr) (value.Set, error) {
	return evaluator(r.db, r.budget, r.Lower, r.Upper).Eval(e)
}

// QueryUpper evaluates an expression over the result's database and defined
// sets, returning the possible (upper-bound) answer.
func (r *Result) QueryUpper(e algebra.Expr) (value.Set, error) {
	return evaluator(r.db, r.budget, r.Upper, r.Lower).Eval(e)
}

func sameSets(a, b map[string]value.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !value.Equal(v, w) {
			return false
		}
	}
	return true
}
