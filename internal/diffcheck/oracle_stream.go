package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/query"
	"algrec/internal/translate"
)

// The stream oracles pin the production path's contract: against the
// reference evaluator (algebra.NewReference) — materialized operators, naive
// IFP rounds, internal/core instead of the rule kernel — it changes cost
// only, never results.

// checkExprStream evaluates one expression as it is served — query.Execute,
// which runs a flat join on the relational rule kernel and everything else on
// the planned value runtime (eager joins, access paths, semi-naive IFP) — and
// on the reference: neither the kernel, nor the planned joins, nor the delta
// rounds may change the value, nor the text a response carries,
// which a kernel answer writes from its rows. The served side is also where
// FaultDropMax plants its corruption.
func checkExprStream(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-stream"
	out, errSt := query.Execute(query.ExprPlan(e), db, query.Options{Budget: ExprBudget})
	ref, errRef := algebra.NewReference(db, ExprBudget).Eval(e)
	if done, err := pairErr(oracle, "served", "reference", errSt, errRef); done {
		return err
	}
	if err := diffSets(oracle, "served vs reference result", applyDropMax(out.Set()), ref); err != nil {
		return err
	}
	if text, _ := out.AppendValue(nil, nil); string(text) != ref.String() {
		return diverge(oracle, "served text %s, reference %v", text, ref)
	}
	return nil
}

// checkDlogStream translates one free-polarity program to algebra=
// (Proposition 6.1) and evaluates its valid model on the production path and
// on the reference: internal/core's lower- and upper-bound passes must compute
// identical certain and possible parts either way.
func checkDlogStream(p *datalog.Program) error {
	const oracle = "dlog-stream"
	cp, db, errT := translate.DatalogToCore(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	st, errSt := core.EvalValid(cp, db, ExprBudget)
	ref, errRef := core.Eval(algebra.NewReference, cp, db, ExprBudget, false)
	if done, err := pairErr(oracle, "production valid", "reference valid", errSt, errRef); done {
		return err
	}
	if err := diffSetMaps(oracle, "certain (lower) part", st.Lower, ref.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "possible (upper) part", st.Upper, ref.Upper)
}
