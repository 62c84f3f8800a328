package ivm

import (
	"errors"
	"fmt"
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// engine is the incremental maintenance state of one stratified datalog
// plan. Facts live in flat ID tables (table.go), one per predicate and
// arity; rules are compiled into one join plan per entry pattern
// (compile.go) and executed over frames of IDs (exec.go). The predicate
// dependency graph is condensed into strongly connected components processed
// in topological order: each batch flows through the components bottom-up,
// so when a component runs, every lower predicate already has its final new
// state and its batch membership delta.
type engine struct {
	plan   *query.Plan
	rules  []*compiledRule
	rels   map[string]*relation
	units  []*unit
	unitOf map[string]*unit
	in     *intern.Interner

	budget   algebra.Budget // WithDefaults applied; Stop polled between phases
	maxFacts int            // total stored rows (from ground.Budget.MaxAtoms)
	maxWork  int            // per-batch join work (from ground.Budget.MaxRules)
	nfacts   int

	run    run // the one rule execution in flight
	lookup func(datalog.Var) (value.Value, bool)
	rowBuf []intern.ID

	// Per-batch accounting, reset by apply: join steps charged against
	// maxWork, index probes and full scans, whether the batch was answered by
	// a rebuild, and — only when the view reports to a collector (observed) —
	// what each unit did.
	work, probes, scans int
	rebuilt             bool
	observed            bool
	unitStats           []obsv.IVMUnit
}

// unit is one strongly connected component of the predicate dependency
// graph: the unit of maintenance strategy choice.
type unit struct {
	preds     map[string]bool
	order     []string // sorted
	recursive bool
	rules     []*compiledRule // rules with their head in the unit
}

// rowRef names one row of one table: a worklist entry.
type rowRef struct {
	t *table
	r int32
}

// newEngine compiles the plan's program, loads the base facts and runs the
// initial evaluation.
func newEngine(plan *query.Plan, db algebra.DB, opts query.Options, observed bool) (*engine, error) {
	gb := opts.Ground
	if gb.MaxAtoms <= 0 {
		gb.MaxAtoms = ground.DefaultBudget.MaxAtoms
	}
	if gb.MaxRules <= 0 {
		gb.MaxRules = ground.DefaultBudget.MaxRules
	}
	e := &engine{
		plan:     plan,
		rels:     map[string]*relation{},
		unitOf:   map[string]*unit{},
		in:       intern.Global(),
		budget:   opts.Budget.WithDefaults(),
		maxFacts: gb.MaxAtoms,
		maxWork:  gb.MaxRules,
		observed: observed,
	}
	e.lookup = e.run.lookup
	var progFacts []datalog.Fact
	for _, r := range plan.Program.Rules {
		if r.IsFact() {
			f, err := datalog.EvalGroundAtom(r.Head, nil)
			if err != nil {
				return nil, err
			}
			progFacts = append(progFacts, f)
			continue
		}
		cr, err := e.compileRule(r)
		if err != nil {
			return nil, err // incrementalOK pre-checked; defensive
		}
		e.rules = append(e.rules, cr)
	}
	e.buildUnits()
	for _, f := range progFacts {
		t, r := e.factRow(f, true)
		t.flags[r] |= fProg
	}
	for name, s := range db {
		rel := e.relFor(name)
		for i := 0; i < s.Len(); i++ {
			t, r := e.elemRow(rel, s.At(i))
			if t.flags[r]&fDB == 0 {
				t.flags[r] |= fDB
				rel.ndb++
			}
		}
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	e.finishBatch()
	return e, nil
}

// buildUnits condenses the predicate dependency graph (head → body, positive
// and negative edges) into SCCs via Tarjan's algorithm, which emits
// components in dependency order (bodies before heads), and fixes each
// relation's maintenance strategy.
func (e *engine) buildUnits() {
	preds := e.plan.Program.Preds()
	adj := map[string][]string{}
	self := map[string]bool{}
	hasRules := map[string]bool{}
	for _, cr := range e.rules {
		h := cr.rule.Head.Pred
		hasRules[h] = true
		for _, l := range cr.lits {
			p := l.t.rel.name
			adj[h] = append(adj[h], p)
			if p == h {
				self[h] = true
			}
		}
	}
	for p := range adj {
		sort.Strings(adj[p])
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string
	var connect func(v string)
	connect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, p := range preds {
		if _, seen := index[p]; !seen {
			connect(p)
		}
	}

	for _, comp := range comps {
		u := &unit{preds: map[string]bool{}, order: comp}
		u.recursive = len(comp) > 1 || self[comp[0]]
		for _, p := range comp {
			u.preds[p] = true
			e.unitOf[p] = u
			if hasRules[p] {
				e.relFor(p).kind = relCounting
				if u.recursive {
					e.relFor(p).kind = relDRed
				}
			}
		}
		for _, cr := range e.rules {
			if u.preds[cr.rule.Head.Pred] {
				u.rules = append(u.rules, cr)
			}
		}
		e.units = append(e.units, u)
	}
}

// relFor returns the predicate's relation, creating a base-only one for
// predicates the program never mentions (mutations may introduce them).
func (e *engine) relFor(pred string) *relation {
	if r, ok := e.rels[pred]; ok {
		return r
	}
	r := &relation{name: pred}
	e.rels[pred] = r
	return r
}

// factRow maps a fact to its table and row. With create unset, a fact the
// engine holds no row for yields noRow (and possibly a nil table).
func (e *engine) factRow(f datalog.Fact, create bool) (*table, int32) {
	rel, ok := e.rels[f.Pred]
	if !ok {
		if !create {
			return nil, noRow
		}
		rel = e.relFor(f.Pred)
	}
	e.rowBuf = e.rowBuf[:0]
	for _, a := range f.Args {
		e.rowBuf = append(e.rowBuf, e.in.Intern(a))
	}
	if create {
		t := rel.tableFor(len(f.Args))
		return t, t.intern(e.rowBuf)
	}
	t := rel.table(len(f.Args))
	if t == nil {
		return nil, noRow
	}
	return t, t.find(e.rowBuf)
}

// elemRow maps a database set element to its row under query.DBFacts'
// convention — a tuple is an n-ary fact, anything else a unary one —
// creating the row. An element the interner has already seen whole gives up
// its component IDs without a lookup per component.
func (e *engine) elemRow(rel *relation, elem value.Value) (*table, int32) {
	tup, ok := elem.(value.Tuple)
	if !ok {
		e.rowBuf = append(e.rowBuf[:0], e.in.Intern(elem))
	} else if id := value.InternID(elem); id != 0 {
		e.rowBuf = append(e.rowBuf[:0], e.in.Elems(intern.ID(id))...)
	} else {
		e.rowBuf = e.rowBuf[:0]
		for i := 0; i < tup.Len(); i++ {
			e.rowBuf = append(e.rowBuf, e.in.Intern(tup.At(i)))
		}
	}
	t := rel.tableFor(len(e.rowBuf))
	return t, t.intern(e.rowBuf)
}

// addRow makes row r a member. Re-adding a row removed earlier in the batch
// is a pure flag flip: its slot and index entries never left.
func (e *engine) addRow(t *table, r int32) error {
	f := t.flags[r]
	if f&fLive != 0 {
		return nil
	}
	f |= fLive
	if f&fRemoved != 0 {
		f &^= fRemoved
	} else {
		f |= fAdded
	}
	t.flags[r] = f
	t.touch(r)
	e.nfacts++
	if e.nfacts > e.maxFacts {
		return fmt.Errorf("%w: ivm stores more than %d facts", algebra.ErrBudget, e.maxFacts)
	}
	return nil
}

// removeRow makes row r a non-member; its slot and index entries stay until
// the batch ends so the old state remains probeable.
func (e *engine) removeRow(t *table, r int32) {
	f := t.flags[r]
	if f&fLive == 0 {
		return
	}
	f &^= fLive
	if f&fAdded != 0 {
		f &^= fAdded
	} else {
		f |= fRemoved
	}
	t.flags[r] = f
	t.touch(r)
	e.nfacts--
}

// settle brings row r's membership in line with its support.
func (e *engine) settle(t *table, r int32) error {
	want, have := t.supported(r), t.flags[r]&fLive != 0
	switch {
	case want && !have:
		return e.addRow(t, r)
	case have && !want:
		e.removeRow(t, r)
	}
	return nil
}

// apply runs one database mutation batch: deletions before insertions (View.
// Apply documents the order). A batch that outruns its work budget is not an
// error: the engine rebuilds from its post-batch base facts, and the batch's
// delta is the difference to the pre-batch membership, which the in-flight
// bookkeeping still describes.
func (e *engine) apply(insert, del []datalog.Fact) (*ResultDelta, error) {
	e.work, e.probes, e.scans, e.rebuilt = 0, 0, 0, false
	e.unitStats = e.unitStats[:0]
	for _, f := range del {
		t, r := e.factRow(f, false)
		if r != noRow && t.flags[r]&fDB != 0 {
			t.flags[r] &^= fDB
			t.rel.ndb--
			t.pending = append(t.pending, r)
		}
	}
	for _, f := range insert {
		t, r := e.factRow(f, true)
		if t.flags[r]&fDB == 0 {
			t.flags[r] |= fDB
			t.rel.ndb++
			t.pending = append(t.pending, r)
		}
	}
	err := e.maintain()
	if errors.Is(err, algebra.ErrBudget) {
		e.rebuilt = true
		e.reset()
		err = e.build()
	}
	if err != nil {
		return nil, err
	}
	return e.finishBatch(), nil
}

// fillStats adds the last batch's accounting to its event.
func (e *engine) fillStats(st *obsv.IVMStats) {
	st.Units = append([]obsv.IVMUnit(nil), e.unitStats...)
	st.Steps, st.Probes, st.Scans, st.Rebuilt = e.work, e.probes, e.scans, e.rebuilt
}

// maintain propagates the pending base changes through the units, bottom-up.
func (e *engine) maintain() error {
	// Predicates outside every unit (database-only) have no rules: their
	// membership is their base membership.
	for _, rel := range e.rels {
		if e.unitOf[rel.name] != nil {
			continue
		}
		for _, t := range rel.tables {
			for _, r := range t.pending {
				if err := e.settle(t, r); err != nil {
					return err
				}
			}
			t.pending = t.pending[:0]
		}
	}
	for _, u := range e.units {
		if err := e.budget.Stop(); err != nil {
			return err
		}
		before, strategy := e.work, "counting"
		var overDeleted, rederived int
		var err error
		if u.recursive {
			strategy = "dred"
			overDeleted, rederived, err = e.applyDRed(u)
		} else {
			err = e.applyCounting(u)
		}
		if err != nil {
			return err
		}
		if e.observed && e.work > before {
			e.unitStats = append(e.unitStats, obsv.IVMUnit{
				Preds: u.order, Strategy: strategy, OverDeleted: overDeleted, Rederived: rederived, Steps: e.work - before,
			})
		}
	}
	return nil
}

// deltaRows calls f for every row of t whose membership the batch changed so
// far, with the direction: +1 added, -1 removed.
func deltaRows(t *table, f func(r int32, sign int) error) error {
	for _, r := range t.touched {
		sign := 0
		switch fl := t.flags[r]; {
		case fl&fAdded != 0:
			sign = +1
		case fl&fRemoved != 0:
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
func (e *engine) applyCounting(u *unit) error {
	rel := e.rels[u.order[0]]
	var moved []rowRef
	for _, t := range rel.tables {
		for _, r := range t.pending {
			moved = append(moved, rowRef{t, r})
		}
		t.pending = t.pending[:0]
	}
	sign := int32(0)
	count := func(t *table, row []intern.ID) error {
		r := t.intern(row)
		t.touch(r) // a row whose count returns to zero is released with the batch
		// Membership can only flip where a count leaves or reaches zero.
		if t.count[r] == 0 || t.count[r]+sign == 0 {
			moved = append(moved, rowRef{t, r})
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
				_, err := e.exec(cr, lit.pivot, lit.t.row(r), viewSplit, li, count)
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
func (e *engine) applyDRed(u *unit) (overDeleted, rederived int, err error) {
	var delWork, insWork, suspects []rowRef

	// Base membership changes.
	for _, p := range u.order {
		for _, t := range e.rels[p].tables {
			for _, r := range t.pending {
				want, have := t.supported(r), t.flags[r]&fLive != 0
				switch {
				case have && t.flags[r]&(fDB|fProg) == 0:
					// Base support vanished. If a derivation keeps the row it
					// is suspect — it may only be self-supporting
					// (p(X) :- p(X)) — so over-delete it and let phase 2
					// re-derive it from the surviving facts.
					t.flags[r] &^= fDerived
					e.removeRow(t, r)
					delWork = append(delWork, rowRef{t, r})
					suspects = append(suspects, rowRef{t, r})
				case !have && want:
					if err := e.addRow(t, r); err != nil {
						return 0, 0, err
					}
					insWork = append(insWork, rowRef{t, r})
				}
			}
			t.pending = t.pending[:0]
		}
	}

	// Phase 1: over-delete. All non-pivot literals read the old state.
	overDelete := func(t *table, row []intern.ID) error {
		r := t.find(row)
		if r == noRow || t.flags[r]&fDerived == 0 {
			return nil
		}
		t.flags[r] &^= fDerived
		suspects = append(suspects, rowRef{t, r})
		if !t.supported(r) {
			e.removeRow(t, r)
			delWork = append(delWork, rowRef{t, r})
		}
		return nil
	}
	if err := e.pivotLower(u, false, overDelete); err != nil {
		return 0, 0, err
	}
	for len(delWork) > 0 {
		if err := e.budget.Stop(); err != nil {
			return 0, 0, err
		}
		rw := delWork[len(delWork)-1]
		delWork = delWork[:len(delWork)-1]
		if err := e.pivotUnit(u, rw, false, overDelete); err != nil {
			return 0, 0, err
		}
	}

	// Phase 2: re-derive over the surviving facts.
	if err := e.budget.Stop(); err != nil {
		return 0, 0, err
	}
	for _, s := range suspects {
		if s.t.flags[s.r]&fDerived != 0 {
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
		s.t.flags[s.r] |= fDerived
		if s.t.flags[s.r]&fLive == 0 {
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

// inserter returns the consumer of the insert phase: a derived head becomes
// derivable, and — when that makes it a member — joins the worklist.
func (e *engine) inserter(work *[]rowRef) func(*table, []intern.ID) error {
	return func(t *table, row []intern.ID) error {
		r := t.intern(row)
		if t.flags[r]&fDerived != 0 {
			return nil
		}
		t.flags[r] |= fDerived
		if t.flags[r]&fLive == 0 {
			if err := e.addRow(t, r); err != nil {
				return err
			}
			*work = append(*work, rowRef{t, r})
		}
		return nil
	}
}

// propagate drains the insert worklist through the unit's rules.
func (e *engine) propagate(u *unit, work *[]rowRef, insert func(*table, []intern.ID) error) error {
	for len(*work) > 0 {
		if err := e.budget.Stop(); err != nil {
			return err
		}
		rw := (*work)[len(*work)-1]
		*work = (*work)[:len(*work)-1]
		if err := e.pivotUnit(u, rw, true, insert); err != nil {
			return err
		}
	}
	return nil
}

// pivotLower runs every unit rule once per lower-predicate delta row,
// pivoting on the literal it changes. constructive selects which half of a
// delta creates derivations: added positives / removed negatives when true
// (insert phase), removed positives / added negatives when false
// (over-delete phase). Non-pivot literals read the phase's state: old for
// over-delete, current for insert.
func (e *engine) pivotLower(u *unit, constructive bool, emit func(*table, []intern.ID) error) error {
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
				_, err := e.exec(cr, lit.pivot, lit.t.row(r), mode, li, emit)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pivotUnit propagates one same-unit row change through every positive
// occurrence of its table in the unit's rules. Negated same-unit occurrences
// cannot exist: the program is stratified.
func (e *engine) pivotUnit(u *unit, rw rowRef, constructive bool, emit func(*table, []intern.ID) error) error {
	mode := viewOld
	if constructive {
		mode = viewCur
	}
	for _, cr := range u.rules {
		for li := range cr.lits {
			lit := &cr.lits[li]
			if lit.neg || lit.t != rw.t {
				continue
			}
			if _, err := e.exec(cr, lit.pivot, rw.t.row(rw.r), mode, li, emit); err != nil {
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
func (e *engine) rederive(u *unit, rw rowRef) (bool, error) {
	for _, cr := range u.rules {
		if cr.head != rw.t {
			continue
		}
		if found, err := e.exec(cr, cr.bound, rw.t.row(rw.r), viewCur, -1, nil); found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// reset prepares a rebuild: every derived support is dropped, and every row
// that was a member when the batch started is marked removed — so as the
// build re-adds rows, the bookkeeping converges on the batch's true delta.
func (e *engine) reset() {
	e.nfacts = 0
	for _, rel := range e.rels {
		for _, t := range rel.tables {
			for r := int32(0); r < t.rows(); r++ {
				f := t.flags[r]
				if f&fFree != 0 {
					continue
				}
				was := t.has(r, true)
				f &^= fLive | fDerived | fAdded | fRemoved
				if was {
					f |= fRemoved
				}
				t.flags[r] = f
				if t.count != nil {
					t.count[r] = 0
				}
				t.touch(r)
			}
			t.pending = t.pending[:0]
		}
	}
}

// build evaluates the program from the base facts the tables carry, unit by
// unit, entering every rule from scratch. It serves the initial evaluation
// and the rebuild after a budget overrun alike, under a fresh work budget.
func (e *engine) build() error {
	e.work = 0
	e.unitStats = e.unitStats[:0]
	for _, rel := range e.rels {
		for _, t := range rel.tables {
			for r := int32(0); r < t.rows(); r++ {
				if t.flags[r]&(fDB|fProg) != 0 {
					if err := e.addRow(t, r); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, u := range e.units {
		if err := e.budget.Stop(); err != nil {
			return err
		}
		before := e.work
		var work []rowRef
		emit := e.inserter(&work)
		if !u.recursive {
			// Every derivation is one support count; membership follows once
			// the unit's rules have all run.
			emit = func(t *table, row []intern.ID) error {
				r := t.intern(row)
				if t.count[r]++; t.count[r] == 1 {
					work = append(work, rowRef{t, r})
				}
				return nil
			}
		}
		for _, cr := range u.rules {
			if _, err := e.exec(cr, cr.scratch, nil, viewCur, -1, emit); err != nil {
				return err
			}
		}
		if u.recursive {
			if err := e.propagate(u, &work, emit); err != nil {
				return err
			}
		} else {
			for _, w := range work {
				if err := e.addRow(w.t, w.r); err != nil {
					return err
				}
			}
		}
		if e.observed && e.work > before {
			e.unitStats = append(e.unitStats, obsv.IVMUnit{Preds: u.order, Strategy: "rebuild", Steps: e.work - before})
		}
	}
	return nil
}

// finishBatch collects the batch's membership delta in deterministic order,
// releases the rows the batch left without support, and resets the batch
// state.
func (e *engine) finishBatch() *ResultDelta {
	d := &ResultDelta{}
	var names []string
	for name, rel := range e.rels {
		for _, t := range rel.tables {
			if len(t.touched) > 0 {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var added, removed []rowRef
		for _, t := range e.rels[name].tables {
			for _, r := range t.touched {
				switch f := t.flags[r]; {
				case f&fAdded != 0:
					added = append(added, rowRef{t, r})
				case f&fRemoved != 0:
					removed = append(removed, rowRef{t, r})
				}
			}
		}
		if len(added)+len(removed) > 0 {
			d.Preds = append(d.Preds, PredDelta{Pred: name, Added: e.sortedKeys(name, added), Removed: e.sortedKeys(name, removed)})
		}
		for _, t := range e.rels[name].tables {
			for _, r := range t.touched {
				t.flags[r] &^= fAdded | fRemoved | fTouched
				if t.flags[r] == 0 && (t.count == nil || t.count[r] == 0) {
					t.release(r)
				}
			}
			t.touched = t.touched[:0]
		}
	}
	return d
}

// sortedKeys renders the rows' facts in the outcome's order — the one place
// rows become values again.
func (e *engine) sortedKeys(pred string, rows []rowRef) []string {
	if len(rows) == 0 {
		return nil
	}
	facts := make([]datalog.Fact, len(rows))
	for i, rw := range rows {
		ids := rw.t.row(rw.r)
		args := make([]value.Value, len(ids))
		for k, id := range ids {
			args[k] = e.in.Lookup(id)
		}
		facts[i] = datalog.Fact{Pred: pred, Args: args}
	}
	datalog.SortFacts(facts)
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.Key()
	}
	return out
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
	for name, rel := range e.rels {
		if !seen[name] && rel.ndb > 0 {
			preds = append(preds, name)
		}
	}
	sort.Strings(preds)
	m := &query.DatalogModel{}
	for _, p := range preds {
		var members []rowRef
		if rel := e.rels[p]; rel != nil {
			for _, t := range rel.tables {
				for r := int32(0); r < t.rows(); r++ {
					if t.flags[r]&fLive != 0 {
						members = append(members, rowRef{t, r})
					}
				}
			}
		}
		m.Preds = append(m.Preds, query.PredFacts{Pred: p, True: e.sortedKeys(p, members)})
	}
	out.Datalog = m
	return out
}
