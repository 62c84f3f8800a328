// Package rel is the relational rule kernel: datalog evaluated straight on
// ID tables, with no ground program in between — the one total model of a
// stratified program, the three-valued valid / well-founded model of one with
// negation through recursion. It is the one executor under both clients that
// run rules to a fixpoint over stored relations — query.Execute, which
// evaluates a program from scratch against a database, and internal/ivm,
// which keeps such an evaluation current under fact mutations — so "from
// scratch" and "maintained" are the same join code entered differently: a
// build enters every rule with nothing bound, a delta batch enters it from
// the changed row.
//
// The pieces:
//
//   - Table (table.go): one flat arity-strided store of interned-ID rows per
//     (predicate, arity), with a row hash for membership and per-column posting
//     chains for joins;
//   - Rule (compile.go): a rule compiled once into one join plan per entry
//     pattern, each ordered by what its entry binds (datalog.PlanRuleFrom);
//   - Engine (this file, exec.go): the tables and compiled rules of one
//     program, condensed into strongly connected components and evaluated
//     bottom-up — non-recursive components by counting derivations, recursive
//     ones semi-naively from a worklist — under a row budget, a join-step
//     budget and interrupts polled every few thousand steps;
//   - maintenance (maintain.go): counting and delete-and-rederive bring a
//     component in line with changed rows below it — ivm's mutation batch, or
//     a three-valued component's other half (alternate);
//   - Base (base.go): what a database version contributes — frozen tables of
//     its relations, and the rendered keys and fact rules read off their
//     rows — derived lazily, once, and shared read-only by every engine built
//     over that version.
//
// Values are materialized only to evaluate interpreted functions and
// comparisons and to render results (SortedKeys).
package rel

import (
	"fmt"
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Limits bound one engine. The zero value of a count means "none may be
// used": callers resolve their defaults before building an engine.
type Limits struct {
	// MaxRows caps the rows stored as members, over all tables the engine
	// reads — database facts included.
	MaxRows int
	// MaxSteps caps the join steps — rows tried against an atom plus completed
	// rule bodies — of one Build or one maintenance batch.
	MaxSteps int
	// Interrupts cancel the evaluation once either is closed: they are polled
	// between components, per worklist row, and every pollEvery join steps.
	// A nil channel never fires.
	Interrupts [2]<-chan struct{}
}

// Config says what an engine is built over and for.
type Config struct {
	// Base is the database version the program reads; nil means every
	// relation is private to the engine and loaded with LoadSet. A stored
	// relation the program derives into is copied from the base's frozen
	// rows.
	Base   *Base
	Limits Limits
	// Maintain also compiles the entry patterns mutation batches need — a
	// pivot plan per body literal, a head-bound plan per rule. A Build needs
	// only the from-scratch entries and the pivots inside a recursive
	// component, and indexes correspondingly fewer columns.
	Maintain bool
	// Observed makes Build record per-component statistics (UnitStats).
	Observed bool
}

// Engine is the evaluation state of one datalog program: its relations as
// flat ID tables, its rules compiled to join plans, and the
// predicate dependency graph condensed into strongly connected components
// (Units) in dependency order, so that when a component runs every predicate
// below it is final. An Engine is not safe for concurrent use; the frozen
// tables of its Base are shared with other engines and only ever read.
type Engine struct {
	Rels   map[string]*Relation
	Units  []*Unit
	UnitOf map[string]*Unit

	// Accounting, reset by Build (clients reset it per maintenance batch):
	// join steps charged against Limits.MaxSteps, index probes — row hash or
	// column postings — and full-table scans.
	Steps, Probes, Scans int
	// UnitStats is what each component with work did in the last Build
	// (Config.Observed only).
	UnitStats []obsv.RelUnit
	// Use is what the engine had its Base derive that no earlier request had.
	Use BaseUse
	// Observed is Config.Observed: someone will read the statistics.
	Observed bool

	derives  map[string]bool // predicates with a rule or a program fact
	three    map[string]bool // three-valued predicates (buildUnits)
	base     *Base
	in       *intern.Interner
	lim      Limits
	nrows    int
	maintain bool
	scanned  map[string]bool // relations full-scanned since the unit began (observed only)

	run    run // the one rule execution in flight
	lookup func(datalog.Var) (value.Value, bool)
	rowBuf []intern.ID
}

// Unit is one strongly connected component of the predicate dependency
// graph: the unit of evaluation, and of maintenance strategy choice.
type Unit struct {
	Preds     map[string]bool
	Order     []string // sorted
	Recursive bool
	Rules     []*Rule // rules with their head in the unit

	// A three-valued component (buildUnits) holds its rules, twice, in the
	// units of its halves — lower derives the true rows, upper the possible
	// ones — and Preds names the relations of both. alternates: it negates one
	// of its own predicates; group then points from a half's unit back at it.
	lower, upper []*Unit
	alternates   bool
	group        *Unit
}

// RowRef names one row of one table: a worklist entry.
type RowRef struct {
	T *Table
	R int32
}

// NewEngine compiles the program over the configured base and loads the
// program's own facts; Build then evaluates it. Relations the program only
// reads are the base's frozen tables, shared; a relation it derives into — a
// rule head or a program fact — is private to the engine, and starts as a
// copy of the base's when the database stores that predicate too. Every rule
// must be plannable (datalog.PlanRuleFrom); an unplannable rule is reported as
// an error.
func NewEngine(prog *datalog.Program, cfg Config) (*Engine, error) {
	e := &Engine{
		Rels:     map[string]*Relation{},
		UnitOf:   map[string]*Unit{},
		derives:  map[string]bool{},
		three:    map[string]bool{},
		base:     cfg.Base,
		in:       intern.Global(),
		lim:      cfg.Limits,
		maintain: cfg.Maintain,
		Observed: cfg.Observed,
	}
	if e.Observed {
		e.scanned = map[string]bool{}
	}
	e.lookup = e.run.lookup
	var progFacts []datalog.Fact
	var rules []datalog.Rule
	for _, r := range prog.Rules {
		e.derives[r.Head.Pred] = true
		if r.IsFact() {
			f, err := datalog.EvalGroundAtom(r.Head, nil)
			if err != nil {
				return nil, err
			}
			progFacts = append(progFacts, f)
			continue
		}
		rules = append(rules, r)
	}
	for _, r := range e.buildUnits(prog.Preds(), rules) {
		cr, err := e.compileRule(r)
		if err != nil {
			return nil, err
		}
		u := e.UnitOf[r.Head.Pred]
		u.Rules = append(u.Rules, cr)
	}
	// A fact is true, and so possible: it goes into both halves of a
	// three-valued predicate.
	for _, f := range progFacts {
		for _, f.Pred = range e.halves(f.Pred) {
			t, r := e.FactRow(f, true)
			t.Flags[r] |= FlagProg
		}
	}
	// The private copies of what the database stores under a derived name,
	// copied from the base's frozen rows. A name first met later (a
	// mutation's) has no stored content to copy.
	for pred := range e.derives {
		if br := e.base.relation(pred); br != nil {
			shared := br.tables(&e.Use)
			for _, half := range e.halves(pred) {
				e.copyRows(half, shared)
			}
		}
	}
	return e, nil
}

// possible names the relation holding the possible rows of a three-valued
// predicate; the predicate's own name holds the true ones. No program can
// spell it, and the base is never asked for it (buildUnits makes it).
func possible(pred string) string { return pred + "?" }

// halves lists the relations a predicate's facts are stored in.
func (e *Engine) halves(pred string) []string {
	if e.three[pred] {
		return []string{pred, possible(pred)}
	}
	return []string{pred}
}

// half returns one half of a rule of a three-valued component: the lower half
// derives true rows from true ones and negates possible ones, the upper half
// derives possible rows from possible ones and negates true ones.
func (e *Engine) half(r datalog.Rule, upper bool) datalog.Rule {
	h := datalog.Rule{Head: r.Head, Body: make([]datalog.Literal, len(r.Body))}
	if upper {
		h.Head.Pred = possible(h.Head.Pred)
	}
	for i, l := range r.Body {
		if la, ok := l.(datalog.LitAtom); ok && e.three[la.Atom.Pred] && la.Neg != upper {
			la.Atom.Pred = possible(la.Atom.Pred)
			l = la
		}
		h.Body[i] = l
	}
	return h
}

// buildUnits condenses the predicate dependency graph (head → body, positive
// and negative edges) into SCCs, in dependency order (bodies before heads),
// and fixes what supports each derived relation's rows: counts below
// recursion, the derivable flag inside it. From a component that negates one
// of its own predicates upward — it, and every component that reads a
// three-valued one — predicates are three-valued, a component is one unit
// holding two halves, and each of its rules becomes two (half). The halves
// negate each other and never themselves, so an alternating component is
// condensed again over its positive edges. It returns the rules to compile.
func (e *Engine) buildUnits(preds []string, rules []datalog.Rule) []datalog.Rule {
	adj, pos := map[string][]string{}, map[string][]string{}
	self := map[string]bool{} // a positive edge to itself
	byHead := map[string][]datalog.Rule{}
	for _, r := range rules {
		h := r.Head.Pred
		byHead[h] = append(byHead[h], r)
		for _, l := range r.Body {
			la, ok := l.(datalog.LitAtom)
			if !ok {
				continue
			}
			adj[h] = append(adj[h], la.Atom.Pred)
			if !la.Neg {
				pos[h] = append(pos[h], la.Atom.Pred)
				self[h] = self[h] || la.Atom.Pred == h
			}
		}
	}
	for p := range adj {
		sort.Strings(adj[p])
		sort.Strings(pos[p])
	}
	// unit makes the evaluation unit of one component, or of one half of it.
	same := func(p string) string { return p }
	unit := func(comp []string, name func(string) string) *Unit {
		u := &Unit{Preds: map[string]bool{}, Recursive: len(comp) > 1 || self[comp[0]]}
		for _, p := range comp {
			q := name(p)
			u.Order = append(u.Order, q)
			u.Preds[q] = true
			e.UnitOf[q] = u
			if len(byHead[p]) > 0 {
				e.relFor(q).Kind = KindCounting
				if u.Recursive {
					e.relFor(q).Kind = KindDRed
				}
			}
		}
		return u
	}

	var out []datalog.Rule
	for _, comp := range sccs(preds, adj, nil) {
		both := map[string]bool{} // the component's relations, true and possible
		var own []datalog.Rule
		for _, p := range comp {
			both[p], both[possible(p)] = true, true
			own = append(own, byHead[p]...)
		}
		alternates, above := false, false
		for _, r := range own {
			for _, l := range r.Body {
				if la, ok := l.(datalog.LitAtom); ok {
					alternates = alternates || la.Neg && both[la.Atom.Pred]
					above = above || e.three[la.Atom.Pred]
				}
			}
		}
		if !alternates && !above {
			e.Units = append(e.Units, unit(comp, same))
			out = append(out, own...)
			continue
		}
		u := &Unit{Preds: both, Order: comp, Recursive: alternates || len(comp) > 1 || self[comp[0]], alternates: alternates}
		subs := [][]string{comp}
		if alternates {
			subs = sccs(comp, pos, both)
		}
		for _, p := range comp {
			e.three[p] = true
			e.Rels[possible(p)] = &Relation{Name: possible(p)}
		}
		for _, sub := range subs {
			lo, up := unit(sub, same), unit(sub, possible)
			if alternates {
				lo.group, up.group = u, u
			}
			u.lower, u.upper = append(u.lower, lo), append(u.upper, up)
		}
		for _, r := range own {
			out = append(out, e.half(r, false), e.half(r, true))
		}
		e.Units = append(e.Units, u)
	}
	return out
}

// sccs returns the strongly connected components of the graph over nodes —
// restricted to the nodes in within, when that is non-nil — by Tarjan's
// algorithm, which emits them in dependency order; each is sorted.
func sccs(nodes []string, adj map[string][]string, within map[string]bool) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	var connect func(v string)
	connect = func(v string) {
		index[v], low[v] = len(index), len(index)
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if within != nil && !within[w] {
				continue
			}
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
	for _, p := range nodes {
		if _, seen := index[p]; !seen {
			connect(p)
		}
	}
	return comps
}

// relFor returns the predicate's relation, creating it on first mention: the
// base's frozen tables when the program only reads the predicate and the
// database stores it, an empty private relation otherwise (mutations may
// introduce predicates the program never mentions).
func (e *Engine) relFor(pred string) *Relation {
	if r, ok := e.Rels[pred]; ok {
		return r
	}
	r := &Relation{Name: pred}
	if !e.derives[pred] {
		if br := e.base.relation(pred); br != nil {
			shared := br.tables(&e.Use)
			r.Tables = append(r.Tables, shared.Tables...)
			r.NDB = shared.NDB
		}
	}
	e.Rels[pred] = r
	return r
}

// NumRows returns the number of rows stored as members right now, over all
// tables the engine reads — what Limits.MaxRows bounds.
func (e *Engine) NumRows() int { return e.nrows }

// Derives reports whether the program adds to the predicate — it heads a rule
// or a program fact — so that its content is the engine's to report; every
// other predicate's content is exactly what the database stores.
func (e *Engine) Derives(pred string) bool { return e.derives[pred] }

// FactRow maps a fact to its table and row. With create unset, a fact the
// engine holds no row for yields NoRow (and possibly a nil table).
func (e *Engine) FactRow(f datalog.Fact, create bool) (*Table, int32) {
	rel, ok := e.Rels[f.Pred]
	if !ok {
		if !create {
			return nil, NoRow
		}
		rel = e.relFor(f.Pred)
	}
	e.rowBuf = e.rowBuf[:0]
	for _, a := range f.Args {
		e.rowBuf = append(e.rowBuf, e.in.Intern(a))
	}
	if create {
		t := rel.tableFor(len(f.Args))
		return t, t.Intern(e.rowBuf)
	}
	t := rel.table(len(f.Args))
	if t == nil {
		return nil, NoRow
	}
	return t, t.Find(e.rowBuf)
}

// LoadSet stores a database relation's elements as database facts of the
// predicate, in the engine's own tables.
func (e *Engine) LoadSet(pred string, s value.Set) {
	rel := e.relFor(pred)
	for i := 0; i < s.Len(); i++ {
		e.rowBuf = elemIDs(e.in, e.rowBuf, s.At(i))
		rel.addDB(e.rowBuf)
	}
}

// copyRows stores the rows of a base relation's frozen tables as database
// facts of the predicate, in the engine's own tables.
func (e *Engine) copyRows(pred string, from *Relation) {
	rel := e.relFor(pred)
	for _, t := range from.Tables {
		for r := int32(0); r < t.Rows(); r++ {
			rel.addDB(t.Row(r))
		}
	}
}

// AddRow makes row r a member. Re-adding a row removed earlier in the batch
// is a pure flag flip: its slot and index entries never left.
func (e *Engine) AddRow(t *Table, r int32) error {
	f := t.Flags[r]
	if f&FlagLive != 0 {
		return nil
	}
	f |= FlagLive
	if f&FlagRemoved != 0 {
		f &^= FlagRemoved
	} else {
		f |= FlagAdded
	}
	t.Flags[r] = f
	t.Touch(r)
	e.nrows++
	return e.checkRows()
}

func (e *Engine) checkRows() error {
	if e.nrows > e.lim.MaxRows {
		return fmt.Errorf("%w: evaluation stores more than %d facts", algebra.ErrBudget, e.lim.MaxRows)
	}
	return nil
}

// RemoveRow makes row r a non-member; its slot and index entries stay until
// the batch ends so the old state remains probeable.
func (e *Engine) RemoveRow(t *Table, r int32) {
	f := t.Flags[r]
	if f&FlagLive == 0 {
		return
	}
	f &^= FlagLive
	if f&FlagAdded != 0 {
		f &^= FlagAdded
	} else {
		f |= FlagRemoved
	}
	t.Flags[r] = f
	t.Touch(r)
	e.nrows--
}

// Settle brings row r's membership in line with its support.
func (e *Engine) Settle(t *Table, r int32) error {
	want, have := t.Supported(r), t.Flags[r]&FlagLive != 0
	switch {
	case want && !have:
		return e.AddRow(t, r)
	case have && !want:
		e.RemoveRow(t, r)
	}
	return nil
}

// Stop reports a fired interrupt as an error wrapping algebra.ErrCanceled.
func (e *Engine) Stop() error {
	for _, ch := range e.lim.Interrupts {
		select {
		case <-ch:
			return fmt.Errorf("%w (interrupt fired during rule evaluation)", algebra.ErrCanceled)
		default:
		}
	}
	return nil
}

// Inserter returns the consumer of an insert phase: a derived head becomes
// derivable, and — when that makes it a member — joins the worklist.
func (e *Engine) Inserter(work *[]RowRef) Emit {
	return func(t *Table, row []intern.ID) error {
		r := t.Intern(row)
		if t.Flags[r]&FlagDerived != 0 {
			return nil
		}
		t.Flags[r] |= FlagDerived
		if t.Flags[r]&FlagLive == 0 {
			if err := e.AddRow(t, r); err != nil {
				return err
			}
			*work = append(*work, RowRef{t, r})
		}
		return nil
	}
}

// Propagate drains the insert worklist through the unit's rules.
func (e *Engine) Propagate(u *Unit, work *[]RowRef, insert Emit) error {
	for len(*work) > 0 {
		if err := e.Stop(); err != nil {
			return err
		}
		rw := (*work)[len(*work)-1]
		*work = (*work)[:len(*work)-1]
		if err := e.PivotUnit(u, rw, true, insert); err != nil {
			return err
		}
	}
	return nil
}

// PivotUnit propagates one same-unit row change through every positive
// occurrence of its table in the unit's rules. Non-pivot literals read the
// current state when constructive (an insert phase), the pre-batch state
// otherwise (an over-delete phase). Negated same-unit occurrences cannot
// exist: a component that negates itself is split into halves that negate
// each other.
func (e *Engine) PivotUnit(u *Unit, rw RowRef, constructive bool, emit Emit) error {
	mode := ViewOld
	if constructive {
		mode = ViewCur
	}
	for _, cr := range u.Rules {
		for li := range cr.Lits {
			lit := &cr.Lits[li]
			if lit.Neg || lit.T != rw.T {
				continue
			}
			if _, err := e.Exec(cr, lit.Pivot, rw.T.Row(rw.R), mode, li, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Build evaluates the program from the base facts the tables carry, unit by
// unit, entering every rule from scratch: every derivation of a non-recursive
// unit is one support count and membership follows once the unit's rules have
// all run; a recursive unit is closed semi-naively from the worklist of what
// its rules derived; a three-valued component is closed half by half
// (alternate). It serves the initial evaluation and a maintained view's
// rebuild alike, under a fresh step budget. The batch bookkeeping it leaves
// on private tables (FlagAdded, Touched) is the client's to read or clear.
func (e *Engine) Build() error {
	e.Steps, e.nrows = 0, 0
	e.UnitStats = e.UnitStats[:0]
	for name := range e.Rels {
		if e.three[name] {
			continue // true rows are not counted: alternate loads them
		}
		if err := e.loadFacts(name); err != nil {
			return err
		}
	}
	if err := e.checkRows(); err != nil {
		return err
	}
	for _, u := range e.Units {
		if err := e.Stop(); err != nil {
			return err
		}
		steps, probes, scans, rows := e.Steps, e.Probes, e.Scans, e.nrows
		var st obsv.RelUnit
		var err error
		if u.upper == nil {
			err = e.buildUnit(u)
		} else {
			st.Alternations, st.Flips, err = e.alternate(u)
		}
		if err != nil {
			return err
		}
		if e.Observed && (e.Steps > steps || st.Alternations > 0) {
			st.Preds, st.Recursive = u.Order, u.Recursive
			st.Steps, st.Probes, st.Scans, st.Rows = e.Steps-steps, e.Probes-probes, e.Scans-scans, e.nrows-rows
			for name := range e.scanned {
				st.Scanned = append(st.Scanned, name)
				delete(e.scanned, name)
			}
			sort.Strings(st.Scanned)
			e.UnitStats = append(e.UnitStats, st)
		}
	}
	return nil
}

// loadFacts makes the relations' database and program facts members.
func (e *Engine) loadFacts(preds ...string) error {
	for _, p := range preds {
		for _, t := range e.Rels[p].Tables {
			if t.frozen {
				e.nrows += int(t.Rows())
				continue
			}
			for r := int32(0); r < t.Rows(); r++ {
				if t.Flags[r]&(FlagDB|FlagProg) != 0 {
					if err := e.AddRow(t, r); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// buildUnit closes one unit from scratch over the final state of everything
// below it.
func (e *Engine) buildUnit(u *Unit) error {
	var work []RowRef
	emit := e.Inserter(&work)
	if !u.Recursive {
		emit = func(t *Table, row []intern.ID) error {
			r := t.Intern(row)
			if t.Count[r]++; t.Count[r] == 1 {
				work = append(work, RowRef{t, r})
			}
			return nil
		}
	}
	for _, cr := range u.Rules {
		if _, err := e.Exec(cr, cr.scratch, nil, ViewCur, -1, emit); err != nil {
			return err
		}
	}
	if u.Recursive {
		return e.Propagate(u, &work, emit)
	}
	for _, w := range work {
		if err := e.AddRow(w.T, w.R); err != nil {
			return err
		}
	}
	return nil
}

// alternate evaluates a three-valued component: the possible rows are closed
// reading "not a" as "a is not true" — so far, only facts are — then the true
// rows reading it as "a is not possible". Where the component negates only
// predicates below it, both are final. Where it negates its own (PAPER.md
// §2.2's iteration, the alternating fixpoint), the halves take turns, each
// maintained (Maintain) under the rows the other's last turn moved as under a
// mutation batch, until a turn moves none. True rows only ever appear and
// possible rows only ever disappear, so no turn closes anything again: the
// work follows the rows that flip, whatever the number of turns. It reports
// the pairs of turns begun and the rows they moved.
func (e *Engine) alternate(u *Unit) (pairs, flips int, err error) {
	halves := [2][]*Unit{u.upper, u.lower}
	// turn runs f over one half's units, bottom-up. A true row is a possible
	// row and counted as one (Limits.MaxRows bounds the possible rows): the
	// lower half counts what it adds from zero, which cannot pass what the
	// possible rows stayed under, and the count is dropped.
	turn := func(half int, f func(*Unit) error) error {
		if n := e.nrows; half == 1 {
			e.nrows = 0
			defer func() { e.nrows = n }()
		}
		for _, h := range halves[half] {
			if err := f(h); err != nil {
				return err
			}
		}
		return nil
	}
	if err := turn(1, func(h *Unit) error { return e.loadFacts(h.Order...) }); err != nil {
		return 0, 0, err
	}
	if u.alternates {
		// From here on a batch flag means "moved in the half's last turn":
		// what the builds so far left on any table is no delta.
		for _, rel := range e.Rels {
			for _, t := range rel.Tables {
				if !t.frozen {
					t.EndBatch()
				}
			}
		}
	}
	for half := range halves {
		if err := turn(half, e.buildUnit); err != nil {
			return 0, 0, err
		}
	}
	if !u.alternates {
		return 0, 0, nil
	}
	// The lower half's build was its first turn: the upper half had been
	// closed before it.
	var tables [2][]*Table
	for i, half := range halves {
		for _, h := range half {
			for _, p := range h.Order {
				tables[i] = append(tables[i], e.Rels[p].Tables...)
			}
		}
	}
	for n := 0; ; n++ {
		if err := e.Stop(); err != nil {
			return 0, 0, err
		}
		for _, t := range tables[n&1] {
			t.EndBatch() // the other half has seen what the last turn moved
		}
		err := turn(n&1, func(h *Unit) error {
			_, _, err := e.Maintain(h)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		moved := 0
		for _, t := range tables[n&1] {
			_ = deltaRows(t, func(int32, int) error { moved++; return nil })
		}
		if moved == 0 {
			return n/2 + 1, flips, nil
		}
		flips += moved
	}
}

// Keys renders the predicate's members as EachMember lists them — of a
// three-valued predicate the true ones, or with undef the undefined ones — as
// fact keys in the outcome's order, and the text that holds them
// (SortedKeys).
func (e *Engine) Keys(pred string, undef bool) (keys []string, text string) {
	return SortedKeys(pred, func(f func(row []intern.ID)) { e.EachMember(pred, undef, f) })
}

// EachMember calls f on every member row of the predicate, in table order — of
// a three-valued predicate every true row, or with undef every undefined one,
// possible but not true (of any other predicate, with undef, none). The row is
// the table's own storage: f reads it and does not change it.
func (e *Engine) EachMember(pred string, undef bool, f func(row []intern.ID)) {
	rel, except := e.Rels[pred], (*Relation)(nil)
	if undef {
		if !e.three[pred] {
			return
		}
		rel, except = e.Rels[possible(pred)], rel
	}
	if rel == nil {
		return
	}
	for _, t := range rel.Tables {
		var not *Table
		if except != nil {
			not = except.table(t.Arity)
		}
		for r := int32(0); r < t.Rows(); r++ {
			if t.Flags[r]&FlagLive == 0 {
				continue
			}
			if not != nil {
				if nr := not.Find(t.Row(r)); nr != NoRow && not.Has(nr, false) {
					continue
				}
			}
			f(t.Row(r))
		}
	}
}
