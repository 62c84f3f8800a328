package diffcheck

import (
	"encoding/json"
	"fmt"
	"reflect"

	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/query"
	"algrec/internal/randgen"
)

// The dlog-ivm oracle pins the incremental view maintenance contract
// (internal/ivm): replaying an arbitrary insert/delete schedule through the
// counting/DRed delta engine must leave the maintained outcome — and every
// per-step ResultDelta — bit-for-bit identical to a view that re-executes
// the plan from scratch on each batch (the view the Budget.NoStreaming
// reference selects) and diffs the outcomes.
//
// What it pins is maintained == from-scratch, deltas included — not that
// from-scratch is right: the recompute side is query.Execute, which evaluates
// these stratified programs on the same relational kernel the delta engine
// maintains on — NoStreaming does not change datalog's engine — so a fault in
// the kernel's joins would move both sides alike. The independent reference —
// the grounded evaluation — is dlog-relational's side of the triangle.
//
// The A/B is per-view, so no process-wide flip or serialization lock is
// involved.

// checkDlogIVM builds one incremental and one recompute view of the same
// stratified program and replays the schedule through both, comparing each
// step's delta and outcome. A budget error on either side skips the
// instance; on the incremental side that now means a build failure — the
// initial one, or the rebuild that answers a batch which outran its work
// budget. The overrun itself is not an error: the rebuilt step's delta and
// outcome are compared like any other.
func checkDlogIVM(p *datalog.Program, sched []randgen.FactBatch) error {
	const oracle = "dlog-ivm"
	plan := &query.Plan{
		Language:  query.LangDatalog,
		Semantics: query.SemStratified,
		Source:    p.String(),
		Program:   p,
	}
	inc, errI := ivm.New(plan, nil, query.Options{Budget: ExprBudget, Ground: GroundBudget})
	rec, errR := ivm.New(plan, nil, query.Options{Budget: noStreaming(ExprBudget), Ground: GroundBudget})
	if done, err := pairErr(oracle, "incremental build", "recompute build", errI, errR); done {
		return err
	}
	oI, _ := inc.Outcome()
	oR, _ := rec.Outcome()
	if !reflect.DeepEqual(oI, oR) {
		return diverge(oracle, "initial outcome mismatch (%s vs %s):\nincremental: %s\nrecompute:   %s",
			inc.Mode(), rec.Mode(), renderJSON(oI.Datalog), renderJSON(oR.Datalog))
	}
	for step, b := range sched {
		dI, errI := inc.Apply(b.Insert, b.Delete)
		dR, errR := rec.Apply(b.Insert, b.Delete)
		left := fmt.Sprintf("incremental step %d", step)
		right := fmt.Sprintf("recompute step %d", step)
		if done, err := pairErr(oracle, left, right, errI, errR); done {
			return err
		}
		if !reflect.DeepEqual(dI, dR) {
			return diverge(oracle, "step %d (%s) delta mismatch:\nincremental: %s\nrecompute:   %s",
				step, b, renderJSON(dI), renderJSON(dR))
		}
		oI, errI := inc.Outcome()
		oR, errR := rec.Outcome()
		if done, err := pairErr(oracle, left+" outcome", right+" outcome", errI, errR); done {
			return err
		}
		if !reflect.DeepEqual(oI, oR) {
			return diverge(oracle, "step %d (%s) outcome mismatch:\nincremental: %s\nrecompute:   %s",
				step, b, renderJSON(oI.Datalog), renderJSON(oR.Datalog))
		}
	}
	return nil
}

// renderJSON renders a delta or model for divergence messages; the ivm wire
// types carry JSON tags, which keeps the dump stable and diffable.
func renderJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}
