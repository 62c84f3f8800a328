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
		var overDeleted, rederived int
		var err error
		if u.Recursive {
			strategy = "dred"
			overDeleted, rederived, err = e.applyDRed(u)
		} else {
			err = e.applyCounting(u)
		}
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

// deltaRows calls f for every row of t whose membership the batch changed so
// far, with the direction: +1 added, -1 removed.
func deltaRows(t *rel.Table, f func(r int32, sign int) error) error {
	for _, r := range t.Touched {
		sign := 0
		switch fl := t.Flags[r]; {
		case fl&rel.FlagAdded != 0:
			sign = +1
		case fl&rel.FlagRemoved != 0:
			sign = -1
		default:
			continue
		}
		if err := f(r, sign); err != nil {
			return err
		}
	}
	return nil
}

// applyCounting maintains a non-recursive unit (always a single predicate
// whose rule bodies only mention lower, already-final predicates). For every
// body literal with a nonempty membership delta, the delta rules pivot
// there: literals before the pivot see the new state, literals after it the
// old state, so each derivation's appearance or disappearance is counted
// exactly once; a negated pivot contributes with the opposite sign.
func (e *engine) applyCounting(u *rel.Unit) error {
	var moved []rel.RowRef
	for _, t := range e.Rels[u.Order[0]].Tables {
		for _, r := range t.Pending {
			moved = append(moved, rel.RowRef{T: t, R: r})
		}
		t.Pending = t.Pending[:0]
	}
	sign := int32(0)
	count := func(t *rel.Table, row []intern.ID) error {
		r := t.Intern(row)
		t.Touch(r) // a row whose count returns to zero is released with the batch
		// Membership can only flip where a count leaves or reaches zero.
		if t.Count[r] == 0 || t.Count[r]+sign == 0 {
			moved = append(moved, rel.RowRef{T: t, R: r})
		}
		t.Count[r] += sign
		return nil
	}
	for _, cr := range u.Rules {
		for li := range cr.Lits {
			lit := &cr.Lits[li]
			err := deltaRows(lit.T, func(r int32, s int) error {
				if sign = int32(s); lit.Neg {
					sign = -sign
				}
				_, err := e.Exec(cr, lit.Pivot, lit.T.Row(r), rel.ViewSplit, li, count)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	for _, m := range moved {
		if err := e.Settle(m.T, m.R); err != nil {
			return err
		}
	}
	return nil
}

// applyDRed maintains a recursive unit in the classical three phases:
//
//  1. over-delete: every row with a derivation through a destructively
//     changed fact (a removed positive / added negative lower fact, a lost
//     base row, or a cascading same-unit deletion) loses its derivable flag,
//     and its membership when no base supports it — evaluated over the old
//     state, where all those derivations are visible;
//  2. re-derive: each over-deleted row is tested once, head-bound, for a
//     derivation from the surviving facts; the rows that have one are
//     restored and queued for phase 3, which restores what follows from them;
//  3. insert: constructively changed lower facts, new base rows, re-derived
//     rows and cascading same-unit insertions propagate semi-naively over
//     the current state — sound under set semantics because derivations are
//     monotone within the phase.
//
// It reports how many rows phase 1 over-deleted and how many of those phase
// 2 found a surviving derivation for.
func (e *engine) applyDRed(u *rel.Unit) (overDeleted, rederived int, err error) {
	var delWork, insWork, suspects []rel.RowRef

	// Base membership changes.
	for _, p := range u.Order {
		for _, t := range e.Rels[p].Tables {
			for _, r := range t.Pending {
				want, have := t.Supported(r), t.Flags[r]&rel.FlagLive != 0
				switch {
				case have && t.Flags[r]&(rel.FlagDB|rel.FlagProg) == 0:
					// Base support vanished. If a derivation keeps the row it
					// is suspect — it may only be self-supporting
					// (p(X) :- p(X)) — so over-delete it and let phase 2
					// re-derive it from the surviving facts.
					t.Flags[r] &^= rel.FlagDerived
					e.RemoveRow(t, r)
					delWork = append(delWork, rel.RowRef{T: t, R: r})
					suspects = append(suspects, rel.RowRef{T: t, R: r})
				case !have && want:
					if err := e.AddRow(t, r); err != nil {
						return 0, 0, err
					}
					insWork = append(insWork, rel.RowRef{T: t, R: r})
				}
			}
			t.Pending = t.Pending[:0]
		}
	}

	// Phase 1: over-delete. All non-pivot literals read the old state.
	overDelete := func(t *rel.Table, row []intern.ID) error {
		r := t.Find(row)
		if r == rel.NoRow || t.Flags[r]&rel.FlagDerived == 0 {
			return nil
		}
		t.Flags[r] &^= rel.FlagDerived
		suspects = append(suspects, rel.RowRef{T: t, R: r})
		if !t.Supported(r) {
			e.RemoveRow(t, r)
			delWork = append(delWork, rel.RowRef{T: t, R: r})
		}
		return nil
	}
	if err := e.pivotLower(u, false, overDelete); err != nil {
		return 0, 0, err
	}
	for len(delWork) > 0 {
		if err := e.Stop(); err != nil {
			return 0, 0, err
		}
		rw := delWork[len(delWork)-1]
		delWork = delWork[:len(delWork)-1]
		if err := e.PivotUnit(u, rw, false, overDelete); err != nil {
			return 0, 0, err
		}
	}

	// Phase 2: re-derive over the surviving facts.
	if err := e.Stop(); err != nil {
		return 0, 0, err
	}
	for _, s := range suspects {
		if s.T.Flags[s.R]&rel.FlagDerived != 0 {
			continue
		}
		ok, err := e.rederive(u, s)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			continue
		}
		rederived++
		s.T.Flags[s.R] |= rel.FlagDerived
		if s.T.Flags[s.R]&rel.FlagLive == 0 {
			if err := e.AddRow(s.T, s.R); err != nil {
				return 0, 0, err
			}
			insWork = append(insWork, s)
		}
	}

	// Phase 3: insert, semi-naively over the current state.
	insert := e.Inserter(&insWork)
	if err := e.pivotLower(u, true, insert); err != nil {
		return 0, 0, err
	}
	return len(suspects), rederived, e.Propagate(u, &insWork, insert)
}

// pivotLower runs every unit rule once per lower-predicate delta row,
// pivoting on the literal it changes. constructive selects which half of a
// delta creates derivations: added positives / removed negatives when true
// (insert phase), removed positives / added negatives when false
// (over-delete phase). Non-pivot literals read the phase's state: old for
// over-delete, current for insert.
func (e *engine) pivotLower(u *rel.Unit, constructive bool, emit rel.Emit) error {
	mode, want := rel.ViewOld, -1
	if constructive {
		mode, want = rel.ViewCur, +1
	}
	for _, cr := range u.Rules {
		for li := range cr.Lits {
			lit := &cr.Lits[li]
			if u.Preds[lit.T.Rel.Name] {
				continue // same-unit changes cascade through the worklist
			}
			err := deltaRows(lit.T, func(r int32, sign int) error {
				if lit.Neg {
					sign = -sign
				}
				if sign != want {
					return nil
				}
				_, err := e.Exec(cr, lit.Pivot, lit.T.Row(r), mode, li, emit)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// rederive reports whether the row is derivable from the current state by
// some unit rule: the rule's head is unified with the row — variables bound,
// constants compared, computed arguments checked as soon as their variables
// are — and the body runs from those bindings until its first solution.
func (e *engine) rederive(u *rel.Unit, rw rel.RowRef) (bool, error) {
	for _, cr := range u.Rules {
		if cr.Head != rw.T {
			continue
		}
		if found, err := e.Exec(cr, cr.Bound, rw.T.Row(rw.R), rel.ViewCur, -1, nil); found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// reset prepares a rebuild: every derived support is dropped, and every row
// that was a member when the batch started is marked removed — so as the
// build re-adds rows, the bookkeeping converges on the batch's true delta.
func (e *engine) reset() {
	for _, r := range e.Rels {
		for _, t := range r.Tables {
			for row := int32(0); row < t.Rows(); row++ {
				f := t.Flags[row]
				if f&rel.FlagFree != 0 {
					continue
				}
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
		var added, removed [][]intern.ID
		for _, t := range e.Rels[name].Tables {
			for _, r := range t.Touched {
				switch f := t.Flags[r]; {
				case f&rel.FlagAdded != 0:
					added = append(added, t.Row(r))
				case f&rel.FlagRemoved != 0:
					removed = append(removed, t.Row(r))
				}
			}
		}
		if len(added)+len(removed) > 0 {
			d.Preds = append(d.Preds, PredDelta{Pred: name, Added: rel.SortedKeys(name, added), Removed: rel.SortedKeys(name, removed)})
		}
	}
	return d
}

// endBatch releases the rows the batch left without support and resets the
// batch state.
func (e *engine) endBatch() {
	for _, r := range e.Rels {
		for _, t := range r.Tables {
			for _, row := range t.Touched {
				t.Flags[row] &^= rel.FlagAdded | rel.FlagRemoved | rel.FlagTouched
				if t.Flags[row] == 0 && (t.Count == nil || t.Count[row] == 0) {
					t.Release(row)
				}
			}
			t.Touched = t.Touched[:0]
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
		m.Preds = append(m.Preds, query.PredFacts{Pred: p, True: e.Keys(p)})
	}
	out.Datalog = m
	return out
}
