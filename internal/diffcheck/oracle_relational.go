package diffcheck

import (
	"reflect"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/query"
)

// The dlog-relational oracles pin the engine choice inside query.Execute: a
// datalog program over a database is evaluated relationally — straight on ID
// tables, the stored relations read from the database's fact base
// (internal/datalog/rel), three-valued by alternation where it negates
// through recursion — and must give, bit for bit, undefined facts and
// WellDefined included, the outcome of the grounded reference: the same
// program with every database fact written into it, grounded, and evaluated
// by the semantics' own fixpoint engine (query.ExecuteGrounded — the path
// production takes for the semantics outside the relational fragment). The
// reference involves neither the kernel nor the fact base, so this is the
// independent anchor under dlog-ivm and dlog-storage, whose "from scratch"
// side is query.Execute itself. dlog-relational draws stratified programs,
// dlog-relational-free programs of unrestricted polarity.
//
// Every semantics that reads the program relationally is checked —
// well-founded and valid, stratified when the program is, and minimal when it
// is negation-free — and errors are compared by class (query.ErrorCode); a
// budget error on either side skips the instance, because the two engines
// count different things against the same budget.

// checkDlogRelational makes the named oracle's check: one stored instance
// through both engines.
func checkDlogRelational(oracle string) func(*datalog.Program, algebra.DB) error {
	return func(p *datalog.Program, db algebra.DB) error { return relationalVsGrounded(oracle, p, db) }
}

func relationalVsGrounded(oracle string, p *datalog.Program, db algebra.DB) error {
	inlined := &datalog.Program{Rules: append([]datalog.Rule{}, p.Rules...)}
	inlined.AddFacts(query.DBFacts(db)...)
	sems := []query.Semantics{query.SemWellFounded, query.SemValid}
	if datalog.IsStratified(p) {
		sems = append(sems, query.SemStratified)
	}
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
