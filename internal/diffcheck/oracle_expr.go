package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/translate"
)

// checkExprSemiNaive runs one expression through the value evaluator, whose
// IFP takes semi-naive delta rounds whenever the body is delta-distributive,
// and through the reference evaluator's naive rounds, demanding identical
// sets. Unlike expr-stream's served side, which hands flat joins and
// closures to the relational kernel, every IFP here runs the value-space
// delta loop; that side is also where FaultDropMax plants its corruption.
func checkExprSemiNaive(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-seminaive"
	naive, errN := algebra.NewEvaluator(db, noStreaming(ExprBudget)).Eval(e)
	delta, errD := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	if done, err := pairErr(oracle, "naive", "semi-naive", errN, errD); done {
		return err
	}
	return diffSets(oracle, "IFP engine result", naive, applyDropMax(delta))
}

// checkExprIFPElim runs an IFP expression directly and through the Theorem
// 3.5 pipeline — translate to deduction (Prop 5.1), step-index away the
// recursion (Prop 5.2), translate back to IFP-free algebra= (Prop 6.1) —
// then evaluates the translated program under the valid semantics. The
// theorem demands the result be total and equal to the direct value. A
// translation error is a skip (a feature gap, not an engine disagreement);
// anything after a successful translation must line up.
func checkExprIFPElim(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-ifp-elim"
	direct, errD := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	cp, cdb, resultName, errT := translate.EliminateIFP(e, db)
	if errT != nil {
		return nil // translation gap or grounding budget: not comparable
	}
	res, errV := core.EvalValid(cp, cdb, ExprBudget)
	if done, err := pairErr(oracle, "direct eval", "eliminated program", errD, errV); done {
		return err
	}
	if !res.IsTotal(resultName) {
		return diverge(oracle, "eliminated program left %q three-valued: undef %v",
			resultName, res.UndefElems(resultName))
	}
	return diffSets(oracle, "IFP value", direct, res.Set(resultName))
}
