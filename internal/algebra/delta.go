package algebra

import (
	"fmt"

	"algrec/internal/obsv"
	"algrec/internal/value"
)

// This file implements the semi-naive delta fixpoint engine for IFP. The
// naive inflationary iteration re-evaluates the whole body on the whole
// accumulator every round, which makes transitive-closure-style workloads
// quadratic or worse in rounds; when the body is *distributive over union*
// in the fixpoint variable, each round only needs the body's value on the
// elements added in the previous round (the delta), because
//
//	body(acc ∪ Δ) = body(acc) ∪ body(Δ)   and   body(acc) ⊆ acc ∪ body(acc),
//
// so the accumulator recurrence acc' = acc ∪ body(acc) collapses to
// acc' = acc ∪ body(Δ). DeltaDistributive decides the condition statically;
// RunIFP runs either loop. Both produce the identical fixpoint — that is the
// point of the analysis — so the naive loop of the Budget.NoStreaming
// reference only changes cost, never results. Delta is a property of the
// body, not of how its sets are represented: this one loop serves every IFP
// the relational kernel (internal/query) does not take.

// DeltaDistributive reports whether e, read as a function of the relation
// name (an enclosing IFP's fixpoint variable), distributes over union:
// e(A ∪ B) = e(A) ∪ e(B) for all sets A, B. The analysis is syntactic and
// conservative:
//
//   - a reference to name, and any subexpression not mentioning name free,
//     distribute trivially;
//   - Union, Select, Map and Diff's left operand preserve distributivity
//     (σ and MAP are element-wise — function expressions cannot reference
//     relations — so they always distribute);
//   - Product distributes in one operand when the other does not mention
//     name: (A ∪ B) × R = (A×R) ∪ (B×R); with name on both sides the cross
//     terms A×B are lost, so it is rejected;
//   - name under Diff's right operand is non-monotone and rejected (this
//     subsumes the positivity condition: a delta-evaluable variable occurs
//     positively in the sense of OccursPositively);
//   - name free under a nested IFP or a Call is rejected — an inner fixpoint
//     of a union is not the union of inner fixpoints, and a callee's shape is
//     unknown before inlining;
//   - Flip only changes which environment *other* names read in the
//     three-valued evaluator; the binding of name itself is polarity-
//     independent, so Flip preserves distributivity.
func DeltaDistributive(e Expr, name string) bool {
	switch ee := e.(type) {
	case Rel, Lit:
		return true
	case Union:
		return DeltaDistributive(ee.L, name) && DeltaDistributive(ee.R, name)
	case Diff:
		return DeltaDistributive(ee.L, name) && !occursFree(ee.R, name)
	case Product:
		lFree, rFree := occursFree(ee.L, name), occursFree(ee.R, name)
		switch {
		case lFree && rFree:
			return false
		case lFree:
			return DeltaDistributive(ee.L, name)
		case rFree:
			return DeltaDistributive(ee.R, name)
		default:
			return true
		}
	case Select:
		return DeltaDistributive(ee.Of, name)
	case Map:
		return DeltaDistributive(ee.Of, name)
	case IFP:
		if ee.Var == name {
			return true // shadowed: constant in name
		}
		return !occursFree(ee.Body, name)
	case Call:
		return !occursFree(e, name)
	case Flip:
		return DeltaDistributive(ee.E, name)
	default:
		panic(fmt.Sprintf("algebra: unknown Expr %T", e))
	}
}

// RunIFP computes the inflationary fixpoint of step over the variable
// varName: starting from the empty set, step is applied and its output
// accumulated until nothing new is added. step evaluates the IFP body under
// the given bindings (outer locals with varName rebound each round); it is
// the seam that lets the two-valued evaluator of this package and the
// three-valued dual evaluator of internal/core share one fixpoint loop.
//
// With useDelta (the caller verified DeltaDistributive on the body),
// varName is bound to the per-round delta instead of the whole accumulator;
// results are identical, and the join pipelines inside step then probe only
// delta-sized inputs. The budget must already have defaults
// applied. obs, when non-nil, receives one IFPStats event for the completed
// fixpoint.
func RunIFP(varName string, outer map[string]value.Set, budget Budget, useDelta bool, obs obsv.Collector, step func(local map[string]value.Set) (value.Set, error)) (value.Set, error) {
	acc := value.EmptySet
	delta := value.EmptySet
	var deltas []int
	for iter := 0; ; iter++ {
		if iter >= budget.MaxIFPIters {
			return value.Set{}, fmt.Errorf("%w: IFP did not converge within %d iterations (the fixed point may be an infinite set)", ErrBudget, budget.MaxIFPIters)
		}
		if err := budget.Stop(); err != nil {
			return value.Set{}, err
		}
		inner := make(map[string]value.Set, len(outer)+1)
		for k, v := range outer {
			if k != varName {
				inner[k] = v
			}
		}
		if useDelta {
			inner[varName] = delta
		} else {
			inner[varName] = acc
		}
		out, err := step(inner)
		if err != nil {
			return value.Set{}, err
		}
		next := acc.Union(out)
		if next.Len() > budget.MaxSetSize {
			return value.Set{}, fmt.Errorf("%w: intermediate set of %d elements exceeds MaxSetSize %d", ErrBudget, next.Len(), budget.MaxSetSize)
		}
		grown := next.Len() - acc.Len()
		if obs != nil {
			deltas = append(deltas, grown)
		}
		if grown == 0 {
			if obs != nil {
				mode := "naive"
				if useDelta {
					mode = "seminaive"
				}
				obs.Collect(obsv.IFPStats{Mode: mode, Rounds: iter + 1, Result: next.Len(), Deltas: deltas})
			}
			return next, nil
		}
		if useDelta {
			delta = out.Diff(acc)
		}
		acc = next
	}
}
