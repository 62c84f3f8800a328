package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/translate"
)

// checkCoreValid evaluates an algebra= program under the valid semantics on
// the production path — scheduled semi-naive Γ, streamed pipelines, probed
// differences — and on the reference: the naive Γ over fully materialized
// operators and naive IFP rounds. Lower and upper bounds must be identical.
// The scheduled engine may itself decide the program is unsafe for scheduling
// and fall back — that is fine; the oracle checks the outcome, not the route.
func checkCoreValid(p *core.Program, db algebra.DB) error {
	const oracle = "core-valid"
	ref, errR := core.EvalValid(p, db, noStreaming(ExprBudget))
	opt, errO := core.EvalValid(p, db, ExprBudget)
	if done, err := pairErr(oracle, "reference", "production", errR, errO); done {
		return err
	}
	if err := diffSetMaps(oracle, "lower bound", ref.Lower, opt.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "upper bound", ref.Upper, opt.Upper)
}

// checkCoreInflationary is checkCoreValid for the inflationary semantics:
// scheduled rounds vs the reference's naive Jacobi rounds must accumulate the
// same sets.
func checkCoreInflationary(p *core.Program, db algebra.DB) error {
	const oracle = "core-inflationary"
	ref, errR := core.EvalInflationary(p, db, noStreaming(ExprBudget))
	opt, errO := core.EvalInflationary(p, db, ExprBudget)
	if done, err := pairErr(oracle, "naive", "scheduled", errR, errO); done {
		return err
	}
	return diffSetMaps(oracle, "inflationary fixpoint", ref, opt)
}

// checkCoreWellFounded compares the valid interpretation computed natively
// by core.EvalValid with the well-founded reading obtained by translating
// the program to deduction (Proposition 5.4) and running the deductive
// well-founded engine. Both compute the alternating fixpoint, so certain
// and possible parts must coincide. Flip-free programs only: the
// translation reads Flip as identity while the core engine flips polarity,
// so annotated programs are not comparable across this boundary.
//
// The scope is limited to programs where the two readings provably
// coincide — see coreWFComparable for the two fuzzer-found boundaries that
// are excluded.
func checkCoreWellFounded(p *core.Program, db algebra.DB) error {
	const oracle = "core-wellfounded"
	if !coreWFComparable(p) {
		return nil
	}
	res, errV := core.EvalValid(p, db, ExprBudget)
	lower, upper, errW := translate.WellFoundedSets(p, db)
	if errW != nil {
		return nil // translation gap or grounding budget: not comparable
	}
	if errV != nil {
		if skippable(errV) {
			return nil
		}
		return diverge(oracle, "core valid failed where the well-founded reading succeeded: %v", errV)
	}
	if err := diffSetMaps(oracle, "certain part", res.Lower, lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "possible part", res.Upper, upper)
}

// coreWFComparable reports whether the deductive well-founded reading of
// the program is expected to coincide with the native valid interpretation.
// Differential fuzzing found two boundaries where the equivalence genuinely
// fails, and instances past them are scope exclusions, not bugs:
//
//   - Non-monotone IFP bodies. The translation encodes ifp(v, E) as the
//     flat recursion p ← E[v:=p], equivalent to the inflationary operator
//     only when v occurs positively in E (counterexample: ifp(v, diff(a, v))).
//
//   - Recursive names under a double subtrahend. The algebra computes with
//     exact sets, so double negation cancels and the occurrence is
//     positive; the translation names the inner difference with an
//     auxiliary predicate whose three-valued well-founded evaluation keeps
//     both negations. def s = diff(m, diff(a, s)) is the minimal witness:
//     m∖a-elements are certain natively but undefined deductively.
func coreWFComparable(p *core.Program) bool {
	rec := map[string]bool{}
	for _, d := range p.Defs {
		rec[d.Name] = true
	}
	for _, d := range p.Defs {
		if !algebra.IsPositiveIFP(d.Body) || deepNegRec(d.Body, rec, 0) {
			return false
		}
	}
	return true
}

// deepNegRec reports whether any recursive name — a defined set or an
// enclosing IFP variable — occurs in e under two or more difference
// subtrahends; depth counts the subtrahend nesting accumulated so far.
func deepNegRec(e algebra.Expr, rec map[string]bool, depth int) bool {
	switch ee := e.(type) {
	case algebra.Rel:
		return depth >= 2 && rec[ee.Name]
	case algebra.Lit:
		return false
	case algebra.Union:
		return deepNegRec(ee.L, rec, depth) || deepNegRec(ee.R, rec, depth)
	case algebra.Diff:
		return deepNegRec(ee.L, rec, depth) || deepNegRec(ee.R, rec, depth+1)
	case algebra.Product:
		return deepNegRec(ee.L, rec, depth) || deepNegRec(ee.R, rec, depth)
	case algebra.Select:
		return deepNegRec(ee.Of, rec, depth)
	case algebra.Map:
		return deepNegRec(ee.Of, rec, depth)
	case algebra.IFP:
		inner := make(map[string]bool, len(rec)+1)
		for k := range rec {
			inner[k] = true
		}
		inner[ee.Var] = true
		return deepNegRec(ee.Body, inner, depth)
	case algebra.Flip:
		return deepNegRec(ee.E, rec, depth)
	case algebra.Call:
		// Inlining substitutes arguments into unknown polarity contexts, so
		// any recursive name inside an argument is conservatively too deep.
		for _, a := range ee.Args {
			for _, r := range algebra.FreeRels(a) {
				if rec[r] {
					return true
				}
			}
		}
		return false
	}
	return false
}
