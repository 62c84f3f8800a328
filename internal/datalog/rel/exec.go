package rel

import (
	"errors"
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// ViewMode assigns each body literal the state of its relation it reads.
type ViewMode uint8

// The view modes.
const (
	// ViewCur: every literal reads the membership right now (mid-phase
	// working state for same-unit predicates, final state for lower ones).
	ViewCur ViewMode = iota
	// ViewOld: every literal reads the membership at the start of the batch:
	// current rows minus this batch's additions, plus its removals.
	ViewOld
	// ViewSplit is the counting strategy's exactly-once discipline: literals
	// before the pivot read the new state, literals after it the old state.
	ViewSplit
)

// Emit consumes the instantiated head of one satisfying binding. The row is
// a scratch buffer: a consumer that keeps it interns it.
type Emit func(t *Table, row []intern.ID) error

// errStop aborts a rule execution early (re-derivation found its target).
var errStop = errors.New("rel: stop")

// run is one execution of an entry plan: the frame of variable slots, the
// entry row, the view assignment and the consumer of completed bodies.
type run struct {
	e     *Engine
	cr    *Rule
	plan  *EntryPlan
	entry []intern.ID // the row the entry atom was unified with
	mode  ViewMode
	pivot int // index into cr.Lits of the skipped literal; -1 when none
	// emit receives the instantiated head of every satisfying binding; nil
	// for a head-bound run, where reaching the end is the answer.
	emit Emit
}

// old reports whether literal lit reads the pre-batch state.
func (x *run) old(lit int) bool {
	switch x.mode {
	case ViewOld:
		return true
	case ViewSplit:
		return lit > x.pivot
	}
	return false
}

// Exec runs plan over cr's frame, entered from row (nil for the from-scratch
// entry): mode and pivot (the index into cr.Lits of the literal row was taken
// from, -1 for none) say which state each literal reads, and emit receives
// every derived head. With a nil emit the run is an existence test, and found
// reports that the body has a solution.
func (e *Engine) Exec(cr *Rule, plan *EntryPlan, row []intern.ID, mode ViewMode, pivot int, emit Emit) (found bool, err error) {
	x := &e.run
	*x = run{e: e, cr: cr, plan: plan, entry: row, mode: mode, pivot: pivot, emit: emit}
	for k, a := range plan.entry {
		switch a.kind {
		case argBind:
			cr.frame[a.slot] = row[k]
		case argSlot:
			if cr.frame[a.slot] != row[k] {
				return false, nil
			}
		case argConst:
			if a.id != row[k] {
				return false, nil
			}
		}
	}
	err = x.step(0)
	if err == errStop {
		return true, nil
	}
	return false, err
}

// pollEvery is how many join steps may pass between two looks at the
// interrupts: what bounds the time a cancelled evaluation keeps running to
// the cost of that many steps, however large the product it is in.
const pollEvery = 1 << 12

// charge accounts one unit of join work against the step budget, and every
// pollEvery steps polls the interrupts.
func (e *Engine) charge() error {
	e.Steps++
	if e.Steps&(pollEvery-1) != 0 && e.Steps <= e.lim.MaxSteps {
		return nil
	}
	if e.Steps > e.lim.MaxSteps {
		return fmt.Errorf("%w: evaluation exceeds %d join steps", algebra.ErrBudget, e.lim.MaxSteps)
	}
	return e.Stop()
}

// lookup resolves a variable for datalog.EvalTermFn — the one place a frame
// slot is turned back into a value.
func (x *run) lookup(v datalog.Var) (value.Value, bool) {
	slot, ok := x.cr.slots[v]
	if !ok {
		return nil, false
	}
	return x.e.in.Lookup(x.cr.frame[slot]), true
}

// eval evaluates a term under the frame and interns the result.
func (x *run) eval(t datalog.Term) (intern.ID, error) {
	v, err := datalog.EvalTermFn(t, x.e.lookup)
	if err != nil {
		return 0, err
	}
	return x.e.in.Intern(v), nil
}

// instantiate fills buf with the IDs of an atom's determined arguments —
// all of them, for a head or a negated atom; free variables are left alone.
func (x *run) instantiate(args []argSpec, buf []intern.ID) error {
	for k, a := range args {
		switch a.kind {
		case argSlot:
			buf[k] = x.cr.frame[a.slot]
		case argConst:
			buf[k] = a.id
		case argTerm:
			id, err := x.eval(a.term)
			if err != nil {
				return err
			}
			buf[k] = id
		}
	}
	return nil
}

// step executes the plan from op i, backtracking through matches.
func (x *run) step(i int) error {
	if i == len(x.plan.ops) {
		if err := x.e.charge(); err != nil {
			return err
		}
		if x.emit == nil {
			return errStop
		}
		if err := x.instantiate(x.cr.headArgs, x.cr.headBuf); err != nil {
			return err
		}
		return x.emit(x.cr.Head, x.cr.headBuf)
	}
	o := &x.plan.ops[i]
	switch o.kind {
	case opMatch:
		return x.match(i, o)
	case opNeg:
		if err := x.instantiate(o.args, o.buf); err != nil {
			return err
		}
		x.e.Probes++
		if r := o.t.Find(o.buf); r != NoRow && o.t.Has(r, x.old(o.lit)) {
			return nil
		}
		return x.step(i + 1)
	case opAssign:
		id, err := x.eval(o.term)
		if err != nil {
			return err
		}
		x.cr.frame[o.slot] = id
		return x.step(i + 1)
	case opTest:
		l, err := datalog.EvalTermFn(o.cmp.L, x.e.lookup)
		if err != nil {
			return err
		}
		r, err := datalog.EvalTermFn(o.cmp.R, x.e.lookup)
		if err != nil {
			return err
		}
		if !o.cmp.Op.Holds(l.Compare(r)) {
			return nil
		}
		return x.step(i + 1)
	case opCheck:
		id, err := x.eval(o.term)
		if err != nil || id != x.entry[o.col] {
			return err
		}
		return x.step(i + 1)
	default:
		return fmt.Errorf("rel: unknown op kind %v", o.kind)
	}
}

// match enumerates the rows of the atom's view that agree with the frame on
// the determined columns and continues the plan under each. A fully
// determined atom is one hash probe; otherwise the shortest posting chain
// among the determined columns is walked; with nothing determined the table
// is scanned.
func (x *run) match(i int, o *op) error {
	t, old := o.t, x.old(o.lit)
	// The determined columns' IDs. (A variable the atom repeats also lands in
	// buf, stale; try compares such a column with the frame, never with buf.)
	if err := x.instantiate(o.args, o.buf); err != nil {
		return err
	}
	switch {
	case len(o.keys) == len(o.args):
		x.e.Probes++
		if err := x.e.charge(); err != nil {
			return err
		}
		if r := t.Find(o.buf); r != NoRow && t.Has(r, old) {
			return x.step(i + 1)
		}
		return nil
	case len(o.keys) > 0:
		x.e.Probes++
		var col *colIndex
		var chain posting
		for _, k := range o.keys {
			p := t.cols[k].head[o.buf[k]]
			if p.n == 0 {
				return nil
			}
			if col == nil || p.n < chain.n {
				col, chain = t.cols[k], p
			}
		}
		for r, n := chain.first, chain.n; n > 0; n-- {
			// Read the link first: the consumer may insert, which relinks
			// only at the chain's head, behind this walk.
			next := col.next[r]
			if err := x.try(i, o, r, old); err != nil {
				return err
			}
			r = next
		}
		return nil
	default:
		x.e.Scans++
		if x.e.Observed {
			x.e.scanned[t.Rel.Name] = true
		}
		// Rows appended while the scan runs are the consumer's own output;
		// delta propagation reaches them through its worklist.
		for r, n := int32(0), t.Rows(); r < n; r++ {
			if err := x.try(i, o, r, old); err != nil {
				return err
			}
		}
		return nil
	}
}

// try unifies row r with the atom and, when it is a member of the view and
// agrees with the frame, continues the plan.
func (x *run) try(i int, o *op, r int32, old bool) error {
	if err := x.e.charge(); err != nil {
		return err
	}
	if !o.t.Has(r, old) {
		return nil
	}
	row := o.t.Row(r)
	for k := range o.args {
		switch a := &o.args[k]; a.kind {
		case argBind:
			x.cr.frame[a.slot] = row[k]
		case argSlot:
			if x.cr.frame[a.slot] != row[k] {
				return nil
			}
		default:
			if o.buf[k] != row[k] {
				return nil
			}
		}
	}
	return x.step(i + 1)
}
