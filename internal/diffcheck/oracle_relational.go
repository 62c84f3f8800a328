package diffcheck

import (
	"reflect"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/query"
)

// The dlog-relational oracle pins the engine choice inside query.Execute: a
// stratified datalog program over a database is evaluated relationally —
// straight on ID tables, the stored relations read from the database's fact
// base (internal/datalog/rel) — and must give, bit for bit, the outcome of
// the grounded reference: the same program with every database fact written
// into it, grounded, and evaluated by the semantics' own fixpoint engine
// (query.ExecuteGrounded — the path production takes for programs outside
// the relational fragment). The reference involves neither the kernel nor
// the fact base, so this is the independent anchor under dlog-ivm and
// dlog-storage, whose "from scratch" side is query.Execute itself.
//
// Every semantics that reads a stratified program relationally is checked —
// stratified, well-founded, valid, and minimal when the program is
// negation-free — and errors are compared by class (query.ErrorCode); a
// budget error on either side skips the instance, because the two engines
// count different things against the same budget.

// checkDlogRelational runs one stored instance through both engines.
func checkDlogRelational(p *datalog.Program, db algebra.DB) error {
	const oracle = "dlog-relational"
	inlined := &datalog.Program{Rules: append([]datalog.Rule{}, p.Rules...)}
	inlined.AddFacts(query.DBFacts(db)...)
	sems := []query.Semantics{query.SemStratified, query.SemWellFounded, query.SemValid}
	if datalog.IsPositive(p) {
		sems = append(sems, query.SemMinimal)
	}
	opts := query.Options{Budget: ExprBudget, Ground: GroundBudget}
	for _, sem := range sems {
		plan := func(prog *datalog.Program) *query.Plan {
			return &query.Plan{Language: query.LangDatalog, Semantics: sem, Source: prog.String(), Program: prog}
		}
		got, errR := query.Execute(plan(p), db, opts)
		want, errG := query.ExecuteGrounded(plan(inlined), nil, opts)
		left, right := "relational "+string(sem), "grounded "+string(sem)
		switch {
		case skippable(errR) || skippable(errG):
			continue
		case errR != nil && errG != nil:
			if cr, cg := query.ErrorCode(errR, false), query.ErrorCode(errG, false); cr != cg {
				return diverge(oracle, "%s failed with %s (%v) where %s failed with %s (%v)", left, cr, errR, right, cg, errG)
			}
			continue
		}
		if done, err := pairErr(oracle, left, right, errR, errG); done {
			return err // exactly one side failed
		}
		if !reflect.DeepEqual(got, want) {
			return diverge(oracle, "outcome mismatch under %s:\nrelational: %s idb %v\ngrounded:   %s idb %v",
				sem, renderJSON(got.Datalog), got.IDB, renderJSON(want.Datalog), want.IDB)
		}
	}
	return nil
}
