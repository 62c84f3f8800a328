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

	db      algebra.DB
	budget  algebra.Budget
	newEval func(algebra.DB, algebra.Budget) *algebra.Evaluator
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
func (r *Result) evaluator(pos, neg map[string]value.Set) *algebra.Evaluator {
	ev := r.newEval(r.db, r.budget)
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
func (r *Result) gamma(p *Program, neg map[string]value.Set, st *obsv.CoreEvalStats) (map[string]value.Set, error) {
	lower := map[string]value.Set{}
	for _, d := range p.Defs {
		lower[d.Name] = value.EmptySet
	}
	ev := r.evaluator(lower, neg)
	st.Gammas++
	for round := 0; ; round++ {
		if round >= r.budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: defining equations did not reach a fixpoint within %d rounds", algebra.ErrBudget, r.budget.MaxIFPIters)
		}
		if err := r.budget.Stop(); err != nil {
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
			if next.Len() > r.budget.MaxSetSize {
				return nil, fmt.Errorf("%w: defined set %q grew past MaxSetSize %d (the fixed point may be infinite)", algebra.ErrBudget, d.Name, r.budget.MaxSetSize)
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

// jacobi is one inflationary round: every definition reads the sets of the
// round before, cur, at both polarities, and adds what it derives to its own.
func (r *Result) jacobi(p *Program, cur map[string]value.Set, st *obsv.CoreEvalStats) (map[string]value.Set, error) {
	ev := r.evaluator(cur, cur)
	next := make(map[string]value.Set, len(cur))
	st.Rounds++
	st.Evals += len(p.Defs)
	for _, d := range p.Defs {
		s, err := ev.Eval(d.Body)
		if err != nil {
			return nil, err
		}
		if next[d.Name] = cur[d.Name].Union(s); next[d.Name].Len() > r.budget.MaxSetSize {
			return nil, fmt.Errorf("%w: defined set %q grew past MaxSetSize %d", algebra.ErrBudget, d.Name, r.budget.MaxSetSize)
		}
	}
	return next, nil
}

// EvalValid computes the valid interpretation of the program on the
// database: the Section 2.2 alternating computation lifted to defined sets.
// The program is inlined first; recursive parameterized definitions are
// rejected (ErrRecursiveParams).
func EvalValid(p *Program, db algebra.DB, budget algebra.Budget) (*Result, error) {
	return Eval(algebra.NewEvaluator, p, db, budget, false)
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
	r, err := Eval(algebra.NewEvaluator, p, db, budget, true)
	if err != nil {
		return nil, err
	}
	return r.Lower, nil
}

// Eval is EvalValid, or EvalInflationary when inflationary is set (its
// Result is two-valued: Lower = Upper), with every definition body and query
// read through newEval: algebra.NewEvaluator on the production path,
// algebra.NewReference on the reference, where the same rounds run over
// materialized operators and naive IFP rounds.
func Eval(newEval func(algebra.DB, algebra.Budget) *algebra.Evaluator, p *Program, db algebra.DB, budget algebra.Budget, inflationary bool) (*Result, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, err
	}
	r := &Result{db: db, budget: budget.WithDefaults(), newEval: newEval}
	obs := obsv.Default()
	st, loop := obsv.CoreEvalStats{Semantics: "valid", Defs: len(q.Defs)}, "valid-model alternation"
	if inflationary {
		st.Semantics, st.Gammas, loop = "inflationary", 1, "inflationary evaluation"
	}
	cur := map[string]value.Set{}
	for _, d := range q.Defs {
		cur[d.Name] = value.EmptySet
	}
	for round := 0; ; round++ {
		if round >= r.budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: %s did not converge within %d rounds", algebra.ErrBudget, loop, r.budget.MaxIFPIters)
		}
		if err := r.budget.Stop(); err != nil {
			return nil, err
		}
		// A valid round is two Γ passes: the possible sets from the certain
		// ones, then the certain sets from the possible ones.
		var next, upper map[string]value.Set
		if inflationary {
			next, err = r.jacobi(q, cur, &st)
			upper = next
		} else if upper, err = r.gamma(q, cur, &st); err == nil {
			next, err = r.gamma(q, upper, &st)
		}
		if err != nil {
			return nil, err
		}
		if sameSets(cur, next) {
			if obs != nil {
				obs.Collect(st)
			}
			r.Lower, r.Upper = next, upper
			return r, nil
		}
		cur = next
	}
}

// QueryLower evaluates an expression over the result's database and defined
// sets, returning the certain (lower-bound) answer.
func (r *Result) QueryLower(e algebra.Expr) (value.Set, error) {
	return r.evaluator(r.Lower, r.Upper).Eval(e)
}

// QueryUpper evaluates an expression over the result's database and defined
// sets, returning the possible (upper-bound) answer.
func (r *Result) QueryUpper(e algebra.Expr) (value.Set, error) {
	return r.evaluator(r.Upper, r.Lower).Eval(e)
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
