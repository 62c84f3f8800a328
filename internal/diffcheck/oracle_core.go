package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/query"
	"algrec/internal/translate"
	"algrec/internal/value"
)

// checkCoreValid evaluates an algebra= program under the valid semantics as
// it is served — query.Execute, which runs a program in the flat fragment on
// the relational rule kernel's alternation and any other on internal/core's
// planned, probing operators — and on the reference, core.Eval with
// algebra.NewReference: the naive Γ rounds over materialized operators. Every
// def's certain elements (the lower bound) and undefined ones (upper − lower)
// must be identical. The served side is where FaultDropMax plants its
// corruption.
func checkCoreValid(p *core.Program, db algebra.DB) error {
	const oracle = "core-valid"
	out, errS := query.Execute(query.ScriptPlan(p), db, query.Options{Budget: ExprBudget, Ground: GroundBudget})
	ref, errR := core.Eval(algebra.NewReference, p, db, ExprBudget, false)
	if done, err := pairErr(oracle, "served", "reference", errS, errR); done {
		return err
	}
	lower, undef, refUndef := map[string]value.Set{}, map[string]value.Set{}, map[string]value.Set{}
	for _, d := range out.Defs {
		lower[d.Name], undef[d.Name] = applyDropMax(d.Set), d.Undef
		refUndef[d.Name] = ref.UndefElems(d.Name)
	}
	if err := diffSetMaps(oracle, "lower bound", lower, ref.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "undefined elements", undef, refUndef)
}

// checkCoreInflationary evaluates an algebra= program under the inflationary
// semantics with internal/core's production operators and on the reference's
// materialized operators and naive IFP rounds: the Jacobi rounds must
// accumulate the same sets.
func checkCoreInflationary(p *core.Program, db algebra.DB) error {
	const oracle = "core-inflationary"
	ref, errR := core.Eval(algebra.NewReference, p, db, ExprBudget, true)
	opt, errO := core.EvalInflationary(p, db, ExprBudget)
	if done, err := pairErr(oracle, "reference", "production", errR, errO); done {
		return err
	}
	return diffSetMaps(oracle, "inflationary fixpoint", ref.Lower, opt)
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
	case algebra.Diff:
		return deepNegRec(ee.L, rec, depth) || deepNegRec(ee.R, rec, depth+1)
	case algebra.IFP:
		inner := map[string]bool{ee.Var: true}
		for k := range rec {
			inner[k] = true
		}
		rec = inner
	case algebra.Call:
		// Inlining substitutes arguments into unknown polarity contexts, so
		// any recursive name inside an argument is conservatively too deep.
		for _, r := range algebra.FreeRels(e) {
			if rec[r] {
				return true
			}
		}
		return false
	}
	for _, k := range algebra.Children(e) {
		if deepNegRec(k, rec, depth) {
			return true
		}
	}
	return false
}
