package rel

import (
	"errors"
	"slices"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/obsv"
	"algrec/internal/value/intern"
)

// Change is what one batch changed of one predicate: the rows that became
// members and the rows that stopped being members, in table order. The lists
// and the rows are the engine's own storage, valid until its next Apply:
// they are only read.
type Change struct {
	Pred           string
	Added, Removed [][]intern.ID
}

// Apply runs one mutation batch of database facts on a maintained engine
// (Config.Maintain) of a stratified program, after its Build: deletions
// before insertions, so a fact in both ends up stored. It first ends the
// last batch: the Build's, whose rows are no batch's change, or the last
// Apply's, whose rows left without support it releases. Then the facts' rows
// flip their database flag, and the units bring their rows in line
// bottom-up, so that when a unit runs, every lower predicate has its final
// new state and its batch delta. It returns the membership changes, by
// predicate in name order.
//
// A batch that outruns Limits.MaxSteps is not an error: the engine rebuilds
// from its post-batch facts under a fresh budget (Rebuilt), and the changes
// are the difference to the pre-batch membership, which the in-flight
// bookkeeping still describes. Any other error — an interrupt, an
// evaluation error, a rebuild that itself exceeds a budget — leaves the
// engine half-maintained, and it must not be used again.
func (e *Engine) Apply(insert, del []datalog.Fact) ([]Change, error) {
	e.endBatch()
	e.Steps, e.Probes, e.Scans, e.Rebuilt = 0, 0, 0, false
	e.BatchUnits = e.BatchUnits[:0]
	for _, f := range del {
		if t, r := e.factRow(f, false); r != noRow && t.flags[r]&flagDB != 0 {
			t.flags[r] &^= flagDB
			t.rel.ndb--
			t.pending = append(t.pending, r)
		}
	}
	for _, f := range insert {
		if t, r := e.factRow(f, true); t.flags[r]&flagDB == 0 {
			t.flags[r] |= flagDB
			t.rel.ndb++
			t.pending = append(t.pending, r)
		}
	}
	err := e.maintainUnits()
	if errors.Is(err, algebra.ErrBudget) {
		e.Rebuilt = true
		e.reset()
		if err = e.Build(); err == nil && e.observed {
			e.BatchUnits = e.BatchUnits[:0]
			for _, u := range e.UnitStats {
				e.BatchUnits = append(e.BatchUnits, obsv.IVMUnit{Preds: u.Preds, Strategy: "rebuild", Steps: u.Steps})
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return e.changes(), nil
}

// StoredPreds returns the predicates holding database rows, in no order. Of
// a maintained engine that is every predicate the database stores, as the
// batches so far left it.
func (e *Engine) StoredPreds() (preds []string) {
	for name, r := range e.rels {
		if r.ndb > 0 {
			preds = append(preds, name)
		}
	}
	return preds
}

// maintainUnits propagates the pending base changes through the units,
// bottom-up.
func (e *Engine) maintainUnits() error {
	// Predicates outside every unit (database-only) have no rules: their
	// membership is their base membership.
	for _, r := range e.rels {
		if e.unitOf[r.name] != nil {
			continue
		}
		for _, t := range r.tables {
			for _, row := range t.pending {
				if err := e.settle(t, row); err != nil {
					return err
				}
			}
			t.pending = t.pending[:0]
		}
	}
	for _, u := range e.units {
		if err := e.stop(); err != nil {
			return err
		}
		before, strategy := e.Steps, "counting"
		if u.recursive {
			strategy = "dred"
		}
		overDeleted, rederived, err := e.maintainUnit(u)
		if err != nil {
			return err
		}
		if e.observed && e.Steps > before {
			e.BatchUnits = append(e.BatchUnits, obsv.IVMUnit{
				Preds: u.order, Strategy: strategy, OverDeleted: overDeleted, Rederived: rederived, Steps: e.Steps - before,
			})
		}
	}
	return nil
}

// reset prepares a rebuild: every derived support is dropped, and every row
// that was a member when the batch started is marked removed — so as the
// build re-adds rows, the bookkeeping converges on the batch's true delta.
func (e *Engine) reset() {
	for _, r := range e.rels {
		for _, t := range r.tables {
			for row := int32(0); row < t.slots(); row++ {
				if !t.Live(row) {
					continue // a released slot
				}
				was := t.has(row, true)
				t.flags[row] &^= flagLive | flagDerived | flagAdded | flagRemoved
				if was {
					t.flags[row] |= flagRemoved
				}
				if t.count != nil {
					t.count[row] = 0
				}
				t.touch(row)
			}
			t.pending = t.pending[:0]
		}
	}
}

// changes lists the batch's membership changes so far, by predicate in name
// order, in buffers the engine reuses from batch to batch.
func (e *Engine) changes() []Change {
	e.changed, e.changedRows = e.changed[:0], e.changedRows[:0]
	for name, r := range e.rels {
		at := [3]int{len(e.changedRows)} // where the added rows, the removed ones and the last start
		for k, want := range [2]int{+1, -1} {
			for _, t := range r.tables {
				_ = deltaRows(t, func(row int32, sign int) error {
					if sign == want {
						e.changedRows = append(e.changedRows, t.Row(row))
					}
					return nil
				})
			}
			at[k+1] = len(e.changedRows)
		}
		if rows := e.changedRows; at[2] > at[0] {
			e.changed = append(e.changed, Change{Pred: name, Added: rows[at[0]:at[1]:at[1]], Removed: rows[at[1]:at[2]:at[2]]})
		}
	}
	slices.SortFunc(e.changed, func(a, b Change) int { return strings.Compare(a.Pred, b.Pred) })
	return e.changed
}

// endBatch makes the current state the old state on every private table,
// releasing the rows the batch left without support.
func (e *Engine) endBatch() {
	for _, r := range e.rels {
		for _, t := range r.tables {
			if !t.frozen {
				t.endBatch()
			}
		}
	}
}

// maintainUnit brings unit u in line with the membership changes below it,
// which the changed rows carry as batch flags (flagAdded, flagRemoved, the
// tables' touched lists) — by counting where u is non-recursive, by
// delete-and-rederive where it is recursive (reporting the rows over-deleted
// and, of those, re-derived). Apply calls it per unit, bottom-up, once per
// mutation batch; alternate for one half's units after the other half moved.
func (e *Engine) maintainUnit(u *unit) (overDeleted, rederived int, err error) {
	if u.recursive {
		return e.applyDRed(u)
	}
	return 0, 0, e.applyCounting(u)
}

// deltaRows calls f for every row of t whose membership the batch changed so
// far, with the direction: +1 added, -1 removed.
func deltaRows(t *table, f func(r int32, sign int) error) error {
	for _, r := range t.touched {
		sign := 0
		switch fl := t.flags[r]; {
		case fl&flagAdded != 0:
			sign = +1
		case fl&flagRemoved != 0:
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
func (e *Engine) applyCounting(u *unit) error {
	var moved []rowRef
	for _, t := range e.rels[u.order[0]].tables {
		for _, r := range t.pending {
			moved = append(moved, rowRef{t: t, r: r})
		}
		t.pending = t.pending[:0]
	}
	sign := int32(0)
	count := func(t *table, row []intern.ID) error {
		r := t.internRow(row)
		t.touch(r) // a row whose count returns to zero is released with the batch
		// Membership can only flip where a count leaves or reaches zero.
		if t.count[r] == 0 || t.count[r]+sign == 0 {
			moved = append(moved, rowRef{t: t, r: r})
		}
		t.count[r] += sign
		return nil
	}
	for _, cr := range u.rules {
		for li := range cr.lits {
			lit := &cr.lits[li]
			err := deltaRows(lit.t, func(r int32, s int) error {
				if sign = int32(s); lit.neg {
					sign = -sign
				}
				_, err := e.exec(cr, lit.pivot, lit.t.Row(r), viewSplit, li, count)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	for _, m := range moved {
		if err := e.settle(m.t, m.r); err != nil {
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
func (e *Engine) applyDRed(u *unit) (overDeleted, rederived int, err error) {
	var delWork, insWork, suspects []rowRef

	// Base membership changes.
	for _, p := range u.order {
		for _, t := range e.rels[p].tables {
			for _, r := range t.pending {
				want, have := t.supported(r), t.flags[r]&flagLive != 0
				switch {
				case have && t.flags[r]&(flagDB|flagProg) == 0:
					// Base support vanished. If a derivation keeps the row it
					// is suspect — it may only be self-supporting
					// (p(X) :- p(X)) — so over-delete it and let phase 2
					// re-derive it from the surviving facts.
					t.flags[r] &^= flagDerived
					e.removeRow(t, r)
					delWork = append(delWork, rowRef{t: t, r: r})
					suspects = append(suspects, rowRef{t: t, r: r})
				case !have && want:
					if err := e.addRow(t, r); err != nil {
						return 0, 0, err
					}
					insWork = append(insWork, rowRef{t: t, r: r})
				}
			}
			t.pending = t.pending[:0]
		}
	}

	// Phase 1: over-delete. All non-pivot literals read the old state.
	overDelete := func(t *table, row []intern.ID) error {
		r, ok := t.Find(row)
		if !ok || t.flags[r]&flagDerived == 0 {
			return nil
		}
		t.flags[r] &^= flagDerived
		suspects = append(suspects, rowRef{t: t, r: r})
		if !t.supported(r) {
			e.removeRow(t, r)
			delWork = append(delWork, rowRef{t: t, r: r})
		}
		return nil
	}
	if err := e.pivotLower(u, false, overDelete); err != nil {
		return 0, 0, err
	}
	for len(delWork) > 0 {
		if err := e.stop(); err != nil {
			return 0, 0, err
		}
		rw := delWork[len(delWork)-1]
		delWork = delWork[:len(delWork)-1]
		if err := e.pivotUnit(u, rw, false, overDelete); err != nil {
			return 0, 0, err
		}
	}

	// Phase 2: re-derive over the surviving facts.
	if err := e.stop(); err != nil {
		return 0, 0, err
	}
	for _, s := range suspects {
		if s.t.flags[s.r]&flagDerived != 0 {
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
		s.t.flags[s.r] |= flagDerived
		if s.t.flags[s.r]&flagLive == 0 {
			if err := e.addRow(s.t, s.r); err != nil {
				return 0, 0, err
			}
			insWork = append(insWork, s)
		}
	}

	// Phase 3: insert, semi-naively over the current state.
	insert := e.inserter(&insWork)
	if err := e.pivotLower(u, true, insert); err != nil {
		return 0, 0, err
	}
	return len(suspects), rederived, e.propagate(u, &insWork, insert)
}

// pivotLower runs every unit rule once per lower-predicate delta row,
// pivoting on the literal it changes. constructive selects which half of a
// delta creates derivations: added positives / removed negatives when true
// (insert phase), removed positives / added negatives when false
// (over-delete phase). Non-pivot literals read the phase's state: old for
// over-delete, current for insert.
func (e *Engine) pivotLower(u *unit, constructive bool, emit emitFunc) error {
	mode, want := viewOld, -1
	if constructive {
		mode, want = viewCur, +1
	}
	for _, cr := range u.rules {
		for li := range cr.lits {
			lit := &cr.lits[li]
			if u.preds[lit.t.rel.name] {
				continue // same-unit changes cascade through the worklist
			}
			err := deltaRows(lit.t, func(r int32, sign int) error {
				if lit.neg {
					sign = -sign
				}
				if sign != want {
					return nil
				}
				_, err := e.exec(cr, lit.pivot, lit.t.Row(r), mode, li, emit)
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
func (e *Engine) rederive(u *unit, rw rowRef) (bool, error) {
	for _, cr := range u.rules {
		if cr.head != rw.t {
			continue
		}
		if found, err := e.exec(cr, cr.bound, rw.t.Row(rw.r), viewCur, -1, nil); found || err != nil {
			return found, err
		}
	}
	return false, nil
}
