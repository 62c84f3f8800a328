package ivm

import (
	"errors"
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value/intern"
)

// engine is the incremental maintenance state of one stratified datalog
// plan: a rel.Engine — the flat ID tables, the rules compiled to one join
// plan per entry pattern, the components of the dependency graph — plus what
// keeping it current under mutation batches takes. Each batch flows through
// the components bottom-up, so when a component runs, every lower predicate
// already has its final new state and its batch membership delta.
type engine struct {
	*rel.Engine
	plan *query.Plan

	// Per-batch accounting beside the kernel's Steps/Probes/Scans: whether the
	// batch was answered by a rebuild, and — only when the view reports to a
	// collector (Observed) — what each unit did.
	rebuilt   bool
	unitStats []obsv.IVMUnit
}

// newEngine compiles the plan's program, loads the base facts and runs the
// initial evaluation.
func newEngine(plan *query.Plan, db algebra.DB, opts query.Options, observed bool) (*engine, error) {
	k, err := rel.NewEngine(plan.Program, rel.Config{Limits: query.KernelLimits(opts), Maintain: true, Observed: observed})
	if err != nil {
		return nil, err // query.RelationalOK pre-checked; defensive
	}
	e := &engine{Engine: k, plan: plan}
	for name, s := range db {
		e.LoadSet(name, s)
	}
	if err := e.Build(); err != nil {
		return nil, err
	}
	// The initial state is nobody's delta: drop the batch flags unrendered.
	e.endBatch()
	return e, nil
}

// apply runs one database mutation batch: deletions before insertions (View.
// Apply documents the order). A batch that outruns its work budget is not an
// error: the engine rebuilds from its post-batch base facts, and the batch's
// delta is the difference to the pre-batch membership, which the in-flight
// bookkeeping still describes.
func (e *engine) apply(insert, del []datalog.Fact) (*ResultDelta, error) {
	e.Steps, e.Probes, e.Scans, e.rebuilt = 0, 0, 0, false
	e.unitStats = e.unitStats[:0]
	for _, f := range del {
		t, r := e.FactRow(f, false)
		if r != rel.NoRow && t.Flags[r]&rel.FlagDB != 0 {
			t.Flags[r] &^= rel.FlagDB
			t.Rel.NDB--
			t.Pending = append(t.Pending, r)
		}
	}
	for _, f := range insert {
		t, r := e.FactRow(f, true)
		if t.Flags[r]&rel.FlagDB == 0 {
			t.Flags[r] |= rel.FlagDB
			t.Rel.NDB++
			t.Pending = append(t.Pending, r)
		}
	}
	err := e.maintain()
	if errors.Is(err, algebra.ErrBudget) {
		e.rebuilt = true
		e.reset()
		if err = e.Build(); err == nil && e.Observed {
			e.unitStats = e.unitStats[:0]
			for _, u := range e.UnitStats {
				e.unitStats = append(e.unitStats, obsv.IVMUnit{Preds: u.Preds, Strategy: "rebuild", Steps: u.Steps})
			}
		}
	}
	if err != nil {
		return nil, err
	}
	d := e.delta()
	e.endBatch()
	return d, nil
}

// fillStats adds the last batch's accounting to its event.
func (e *engine) fillStats(st *obsv.IVMStats) {
	st.Units = append([]obsv.IVMUnit(nil), e.unitStats...)
	st.Steps, st.Probes, st.Scans, st.Rebuilt = e.Steps, e.Probes, e.Scans, e.rebuilt
}

// maintain propagates the pending base changes through the units, bottom-up.
func (e *engine) maintain() error {
	// Predicates outside every unit (database-only) have no rules: their
	// membership is their base membership.
	for _, r := range e.Rels {
		if e.UnitOf[r.Name] != nil {
			continue
		}
		for _, t := range r.Tables {
			for _, row := range t.Pending {
				if err := e.Settle(t, row); err != nil {
					return err
				}
			}
			t.Pending = t.Pending[:0]
		}
	}
	for _, u := range e.Units {
		if err := e.Stop(); err != nil {
			return err
		}
		before, strategy := e.Steps, "counting"
		if u.Recursive {
			strategy = "dred"
		}
		overDeleted, rederived, err := e.Maintain(u)
		if err != nil {
			return err
		}
		if e.Observed && e.Steps > before {
			e.unitStats = append(e.unitStats, obsv.IVMUnit{
				Preds: u.Order, Strategy: strategy, OverDeleted: overDeleted, Rederived: rederived, Steps: e.Steps - before,
			})
		}
	}
	return nil
}

// reset prepares a rebuild: every derived support is dropped, and every row
// that was a member when the batch started is marked removed — so as the
// build re-adds rows, the bookkeeping converges on the batch's true delta.
func (e *engine) reset() {
	for _, r := range e.Rels {
		for _, t := range r.Tables {
			for row := int32(0); row < t.Rows(); row++ {
				if !t.Live(row) {
					continue // a released slot
				}
				f := t.Flags[row]
				was := t.Has(row, true)
				f &^= rel.FlagLive | rel.FlagDerived | rel.FlagAdded | rel.FlagRemoved
				if was {
					f |= rel.FlagRemoved
				}
				t.Flags[row] = f
				if t.Count != nil {
					t.Count[row] = 0
				}
				t.Touch(row)
			}
			t.Pending = t.Pending[:0]
		}
	}
}

// delta collects the batch's membership changes in deterministic order.
func (e *engine) delta() *ResultDelta {
	d := &ResultDelta{}
	var names []string
	for name, r := range e.Rels {
		for _, t := range r.Tables {
			if len(t.Touched) > 0 {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		// touched renders the batch's rows whose flags, of added and removed,
		// are flag.
		touched := func(flag rel.RowFlags) []string {
			keys, _ := rel.SortedKeys(name, func(f func(row []intern.ID)) {
				for _, t := range e.Rels[name].Tables {
					for _, r := range t.Touched {
						if t.Flags[r]&(rel.FlagAdded|rel.FlagRemoved) == flag {
							f(t.Row(r))
						}
					}
				}
			})
			return keys
		}
		if added, removed := touched(rel.FlagAdded), touched(rel.FlagRemoved); len(added)+len(removed) > 0 {
			d.Preds = append(d.Preds, PredDelta{Pred: name, Added: added, Removed: removed})
		}
	}
	return d
}

// endBatch releases the rows the batch left without support and resets the
// batch state.
func (e *engine) endBatch() {
	for _, r := range e.Rels {
		for _, t := range r.Tables {
			t.EndBatch()
		}
	}
}

// outcome renders the maintained state exactly as query.Execute renders a
// from-scratch evaluation: every program predicate plus every predicate with
// database facts, sorted, with CompareFacts-ordered fact keys.
func (e *engine) outcome() *query.Outcome {
	out := &query.Outcome{
		Language:    e.plan.Language,
		Semantics:   e.plan.Semantics,
		WellDefined: true,
		IDB:         e.plan.Program.IDB(),
	}
	preds := e.plan.Program.Preds()
	seen := make(map[string]bool, len(preds))
	for _, p := range preds {
		seen[p] = true
	}
	for name, r := range e.Rels {
		if !seen[name] && r.NDB > 0 {
			preds = append(preds, name)
		}
	}
	sort.Strings(preds)
	m := &query.DatalogModel{}
	for _, p := range preds {
		pf := query.PredFacts{Pred: p}
		pf.True, pf.TrueJSON = e.Keys(p, false)
		m.Preds = append(m.Preds, pf)
	}
	out.Datalog = m
	return out
}
