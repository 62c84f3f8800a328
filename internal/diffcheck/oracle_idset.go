package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/translate"
)

// The idset oracles pin the ID-native delta fixpoint kernels' contract: the
// per-budget NoIDSets switch changes cost only, never results. Like
// NoStreaming it travels in the Budget, so the oracles need no lock.

// noIDSets returns the budget with the ID-native fixpoint kernels disabled —
// the value-space reference side of each idset oracle.
func noIDSets(b algebra.Budget) algebra.Budget {
	b.NoIDSets = true
	return b
}

// checkExprIDSet evaluates one IFP-bearing expression with the ID-native
// delta kernels enabled and with the value-space delta rounds; the galloping
// ID kernels and the per-fixpoint join index must not change the value.
func checkExprIDSet(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-idset"
	id, errID := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	vs, errVS := algebra.NewEvaluator(db, noIDSets(ExprBudget)).Eval(e)
	if done, err := pairErr(oracle, "id-space", "value-space", errID, errVS); done {
		return err
	}
	return diffSets(oracle, "id-space vs value-space result", id, vs)
}

// checkDlogIDSet translates one free-polarity program to algebra=
// (Proposition 6.1) and evaluates its valid model with and without the
// ID-native kernels: the three-valued dual evaluator must compute identical
// certain and possible parts either way.
func checkDlogIDSet(p *datalog.Program) error {
	const oracle = "dlog-idset"
	cp, db, errT := translate.DatalogToCore(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	id, errID := core.EvalValid(cp, db, ExprBudget)
	vs, errVS := core.EvalValid(cp, db, noIDSets(ExprBudget))
	if done, err := pairErr(oracle, "id-space valid", "value-space valid", errID, errVS); done {
		return err
	}
	if err := diffSetMaps(oracle, "certain (lower) part", id.Lower, vs.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "possible (upper) part", id.Upper, vs.Upper)
}
