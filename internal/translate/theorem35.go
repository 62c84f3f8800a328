package translate

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/obsv"
)

// EliminateIFP realizes Theorem 3.5 (IFP-algebra ⊂ algebra=) constructively,
// by exactly the composition the paper describes: "We first translate
// IFP_exp into a deductive program (proposition 5.3). Then we translate the
// deductive program into an algebra= program (proposition 6.1)." Spelled
// out:
//
//  1. the IFP-algebra expression becomes a deductive program faithful under
//     the inflationary semantics (Proposition 5.1);
//  2. the step-index transformation makes that program faithful under the
//     valid semantics (Proposition 5.2) — together, Proposition 5.3;
//  3. the simulation-function translation turns it into an algebra= program
//     (Proposition 6.1).
//
// The result is an algebra= program with *no IFP operator anywhere*, whose
// valid evaluation has a definition named by the returned string holding the
// original expression's value — "when the ability to use recursion is added,
// a specific fixed point operator like IFP becomes redundant" (Corollary
// 3.6).
//
// One finiteness concession: Proposition 5.2's index ranges over all
// naturals; executable programs need a concrete bound, which depends on the
// database, so EliminateIFP takes the database and computes the bound by
// running the inflationary evaluation once. The paper's construction is
// database-independent because its programs may be infinite.
func EliminateIFP(e algebra.Expr, db algebra.DB) (*core.Program, algebra.DB, string, error) {
	const result = "ifpresult"
	// Bound for (2): the largest iteration count any IFP in the expression
	// reaches on this database, observed by evaluating the expression once
	// with an instrumented collector.
	bound, err := ifpIterBound(e, db)
	if err != nil {
		return nil, nil, "", fmt.Errorf("translate: bounding the step index: %w", err)
	}
	// (1)+(2) Propositions 5.1 and 5.2, with the step-index transformation
	// applied to each IFP operator individually. Indexing the flat
	// translation as a whole would replay the inflationary fixpoint of the
	// *flat* rule set, which also replays its transient subtraction
	// over-approximations — a diff whose subtrahend needs several rounds to
	// converge fires too early under flat inflationary rounds, and
	// inflationary derivation is never retracted. Per-operator indexing
	// keeps every subexpression at a frozen accumulator index, so the valid
	// model replays the hierarchical evaluation exactly.
	dlog, err := algebraToDatalogStaged(e, result, nil, bound)
	if err != nil {
		return nil, nil, "", err
	}
	dlog.AddFacts(DBFacts(db)...)
	// (3) Proposition 6.1.
	cp, cdb, err := DatalogToCore(dlog)
	if err != nil {
		return nil, nil, "", err
	}
	// The resulting program must be IFP-free: that is the theorem.
	for _, d := range cp.Defs {
		if algebra.HasIFP(d.Body) {
			return nil, nil, "", fmt.Errorf("translate: internal error: IFP survived elimination in %q", d.Name)
		}
	}
	emitTranslate("elimifp", len(dlog.Rules), len(cp.Defs), int(bound))
	return cp, cdb, result, nil
}

// ifpIterBound evaluates the expression once, recording every IFP fixpoint's
// round count, and returns a step bound sufficient for all of them. Nested
// IFPs report once per enclosing round, so the maximum covers every
// accumulator state the staged program can reach: indices past an operator's
// convergence only carry its fixpoint forward.
func ifpIterBound(e algebra.Expr, db algebra.DB) (int64, error) {
	ev := algebra.NewEvaluator(db, algebra.Budget{})
	rounds := 0
	ev.SetCollector(obsv.Func(func(e obsv.Event) {
		if s, ok := e.(obsv.IFPStats); ok && s.Rounds > rounds {
			rounds = s.Rounds
		}
	}))
	if _, err := ev.Eval(e); err != nil {
		return 0, err
	}
	return int64(rounds) + 1, nil
}
