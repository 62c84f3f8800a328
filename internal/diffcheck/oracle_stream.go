package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/query"
	"algrec/internal/translate"
)

// The stream oracles pin the streaming execution runtime's contract: the
// per-budget NoStreaming switch, the materialized reference, changes cost
// only, never results. NoStreaming travels in the Budget, so the oracles
// need no lock; when DefaultBudget.NoStreaming is set, both sides of the pair
// materialize and the oracle degrades to a (still sound) self-comparison.

// noStreaming returns the budget with the streaming runtime disabled — the
// materialized reference side of each stream oracle.
func noStreaming(b algebra.Budget) algebra.Budget {
	b.NoStreaming = true
	return b
}

// checkExprStream evaluates one expression as it is served — query.Execute,
// which runs a flat join on the relational rule kernel and everything else on
// the planned value runtime (streaming pipelines, access paths) — and through
// full operator-by-operator materialization, the reference: neither the
// kernel nor the planned iterators may change the value.
func checkExprStream(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-stream"
	out, errSt := query.Execute(query.ExprPlan(e), db, query.Options{Budget: ExprBudget})
	mat, errMat := algebra.NewEvaluator(db, noStreaming(ExprBudget)).Eval(e)
	if done, err := pairErr(oracle, "served", "materialized", errSt, errMat); done {
		return err
	}
	return diffSets(oracle, "served vs materialized result", out.Value, mat)
}

// checkDlogStream translates one free-polarity program to algebra=
// (Proposition 6.1) and evaluates its valid model with and without the
// streaming runtime: the three-valued dual evaluator must compute identical
// certain and possible parts either way.
func checkDlogStream(p *datalog.Program) error {
	const oracle = "dlog-stream"
	cp, db, errT := translate.DatalogToCore(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	st, errSt := core.EvalValid(cp, db, ExprBudget)
	mat, errMat := core.EvalValid(cp, db, noStreaming(ExprBudget))
	if done, err := pairErr(oracle, "streaming valid", "materialized valid", errSt, errMat); done {
		return err
	}
	if err := diffSetMaps(oracle, "certain (lower) part", st.Lower, mat.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "possible (upper) part", st.Upper, mat.Upper)
}
