package rel

import "algrec/internal/value/intern"

// Maintain brings unit u in line with the membership changes below it, which
// the changed rows carry as batch flags (FlagAdded, FlagRemoved, the tables'
// Touched lists) — by counting where u is non-recursive, by delete-and-
// rederive where it is recursive (reporting the rows over-deleted and, of
// those, re-derived). internal/ivm calls it per unit, bottom-up, once per
// mutation batch; alternate for one half's units after the other half moved.
func (e *Engine) Maintain(u *Unit) (overDeleted, rederived int, err error) {
	if u.Recursive {
		return e.applyDRed(u)
	}
	return 0, 0, e.applyCounting(u)
}

// deltaRows calls f for every row of t whose membership the batch changed so
// far, with the direction: +1 added, -1 removed.
func deltaRows(t *Table, f func(r int32, sign int) error) error {
	for _, r := range t.Touched {
		sign := 0
		switch fl := t.Flags[r]; {
		case fl&FlagAdded != 0:
			sign = +1
		case fl&FlagRemoved != 0:
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
func (e *Engine) applyCounting(u *Unit) error {
	var moved []RowRef
	for _, t := range e.Rels[u.Order[0]].Tables {
		for _, r := range t.Pending {
			moved = append(moved, RowRef{T: t, R: r})
		}
		t.Pending = t.Pending[:0]
	}
	sign := int32(0)
	count := func(t *Table, row []intern.ID) error {
		r := t.Intern(row)
		t.Touch(r) // a row whose count returns to zero is released with the batch
		// Membership can only flip where a count leaves or reaches zero.
		if t.Count[r] == 0 || t.Count[r]+sign == 0 {
			moved = append(moved, RowRef{T: t, R: r})
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
				_, err := e.Exec(cr, lit.Pivot, lit.T.Row(r), ViewSplit, li, count)
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
func (e *Engine) applyDRed(u *Unit) (overDeleted, rederived int, err error) {
	var delWork, insWork, suspects []RowRef

	// Base membership changes.
	for _, p := range u.Order {
		for _, t := range e.Rels[p].Tables {
			for _, r := range t.Pending {
				want, have := t.Supported(r), t.Flags[r]&FlagLive != 0
				switch {
				case have && t.Flags[r]&(FlagDB|FlagProg) == 0:
					// Base support vanished. If a derivation keeps the row it
					// is suspect — it may only be self-supporting
					// (p(X) :- p(X)) — so over-delete it and let phase 2
					// re-derive it from the surviving facts.
					t.Flags[r] &^= FlagDerived
					e.RemoveRow(t, r)
					delWork = append(delWork, RowRef{T: t, R: r})
					suspects = append(suspects, RowRef{T: t, R: r})
				case !have && want:
					if err := e.AddRow(t, r); err != nil {
						return 0, 0, err
					}
					insWork = append(insWork, RowRef{T: t, R: r})
				}
			}
			t.Pending = t.Pending[:0]
		}
	}

	// Phase 1: over-delete. All non-pivot literals read the old state.
	overDelete := func(t *Table, row []intern.ID) error {
		r, ok := t.Find(row)
		if !ok || t.Flags[r]&FlagDerived == 0 {
			return nil
		}
		t.Flags[r] &^= FlagDerived
		suspects = append(suspects, RowRef{T: t, R: r})
		if !t.Supported(r) {
			e.RemoveRow(t, r)
			delWork = append(delWork, RowRef{T: t, R: r})
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
		if s.T.Flags[s.R]&FlagDerived != 0 {
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
		s.T.Flags[s.R] |= FlagDerived
		if s.T.Flags[s.R]&FlagLive == 0 {
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
func (e *Engine) pivotLower(u *Unit, constructive bool, emit Emit) error {
	mode, want := ViewOld, -1
	if constructive {
		mode, want = ViewCur, +1
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
func (e *Engine) rederive(u *Unit, rw RowRef) (bool, error) {
	for _, cr := range u.Rules {
		if cr.Head != rw.T {
			continue
		}
		if found, err := e.Exec(cr, cr.Bound, rw.T.Row(rw.R), ViewCur, -1, nil); found || err != nil {
			return found, err
		}
	}
	return false, nil
}
