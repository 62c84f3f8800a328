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
//   - tables (table.go): one flat arity-strided store of interned-ID rows per
//     (predicate, arity), with a row hash for membership, per-column posting
//     chains for joins, and a flag byte per row that says what supports it
//     and how the batch in flight moved it — state no client sees;
//   - compiled rules (compile.go): a rule compiled once into one join plan
//     per entry pattern, each ordered by what its entry binds
//     (datalog.PlanRuleFrom);
//   - Engine (this file, exec.go): the tables and compiled rules of one
//     program, condensed into strongly connected components and evaluated
//     bottom-up — non-recursive components by counting derivations, recursive
//     ones semi-naively from a worklist — under a row budget, a join-step
//     budget and interrupts polled every few thousand steps;
//   - maintenance (maintain.go): counting and delete-and-rederive bring a
//     component in line with changed rows below it, for a three-valued
//     component's other half (alternate) and for a mutation batch — whole
//     in one call, Engine.Apply: the batch's intake, the components
//     bottom-up, the rebuild when it outruns its budget, and the rows it
//     changed, which ivm renders as a view's delta;
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
	// Base is the database version the program reads; nil is the empty
	// database. A stored relation the program derives into is copied from the
	// base's frozen rows.
	Base   *Base
	Limits Limits
	// Maintain readies the engine for mutation batches (Apply). It compiles
	// the entry patterns they need — a pivot plan per body literal, a
	// head-bound plan per rule — where a Build needs only the from-scratch
	// entries and the pivots inside a recursive component, and indexes
	// correspondingly fewer columns. And since a batch writes the database's
	// relations, every stored relation is a private copy of the base's frozen
	// rows, not only those the program derives into: the engine never writes
	// the base, and holds nothing of it once it is built.
	Maintain bool
	// Observed makes Build record per-component statistics (UnitStats).
	Observed bool
}

// Engine is the evaluation state of one datalog program: its relations as
// flat ID tables, its rules compiled to join plans, and the
// predicate dependency graph condensed into strongly connected components
// (units) in dependency order, so that when a component runs every predicate
// below it is final. An Engine is not safe for concurrent use; the frozen
// tables of its Base are shared with other engines and only ever read.
type Engine struct {
	rels   map[string]*relation
	units  []*unit
	unitOf map[string]*unit

	// Accounting, reset by Build and by Apply: join steps charged against
	// Limits.MaxSteps, index probes — row hash or column postings — and
	// full-table scans.
	Steps, Probes, Scans int
	// UnitStats is what each component with work did in the last Build
	// (Config.Observed only).
	UnitStats []obsv.RelUnit
	// Rebuilt says the last Apply outran Limits.MaxSteps and was answered by
	// a Build from the post-batch facts; BatchUnits is what each component
	// with work did in it (Config.Observed only) — every unit's "rebuild"
	// after a rebuild.
	Rebuilt    bool
	BatchUnits []obsv.IVMUnit
	// Use is what the engine had its Base derive that no earlier request had.
	Use BaseUse
	// observed is Config.Observed: someone will read the statistics.
	observed bool

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

	changed     []Change      // the last Apply's changes
	changedRows [][]intern.ID // their rows
}

// unit is one strongly connected component of the predicate dependency
// graph: the unit of evaluation, and of maintenance strategy choice.
type unit struct {
	preds     map[string]bool
	order     []string // sorted
	recursive bool
	rules     []*compiledRule // rules with their head in the unit

	// A three-valued component (buildUnits) holds its rules, twice, in the
	// units of its halves — lower derives the true rows, upper the possible
	// ones — and Preds names the relations of both. alternates: it negates one
	// of its own predicates; group then points from a half's unit back at it.
	lower, upper []*unit
	alternates   bool
	group        *unit
}

// rowRef names one row of one table: a worklist entry.
type rowRef struct {
	t *table
	r int32
}

// NewEngine compiles the program over the configured base and loads the
// program's own facts; Build then evaluates it. Relations the program only
// reads are the base's frozen tables, shared; a relation it derives into — a
// rule head or a program fact — is private to the engine, and starts as a
// copy of the base's when the database stores that predicate too. A
// maintained engine (Config.Maintain) copies every stored relation. Every
// rule must be plannable (datalog.PlanRuleFrom); an unplannable rule is
// reported as an error.
func NewEngine(prog *datalog.Program, cfg Config) (*Engine, error) {
	e := &Engine{
		rels:     map[string]*relation{},
		unitOf:   map[string]*unit{},
		derives:  map[string]bool{},
		three:    map[string]bool{},
		base:     cfg.Base,
		in:       intern.Global(),
		lim:      cfg.Limits,
		maintain: cfg.Maintain,
		observed: cfg.Observed,
	}
	if e.observed {
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
		u := e.unitOf[r.Head.Pred]
		u.rules = append(u.rules, cr)
	}
	// A fact is true, and so possible: it goes into both halves of a
	// three-valued predicate.
	for _, f := range progFacts {
		for _, f.Pred = range e.halves(f.Pred) {
			t, r := e.factRow(f, true)
			t.flags[r] |= flagProg
		}
	}
	// The private copies of what the database stores under a derived name —
	// or, maintained, under any name — copied from the base's frozen rows. A
	// name first met later (a mutation's) has no stored content to copy.
	for _, pred := range e.base.Names() {
		if !e.maintain && !e.derives[pred] {
			continue
		}
		shared := e.base.relation(pred).tables(&e.Use)
		for _, half := range e.halves(pred) {
			shared.each(e.relFor(half).addDB)
		}
	}
	if e.maintain {
		e.base = nil // everything it read is copied
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
	// mkUnit makes the evaluation unit of one component, or of one half of it.
	same := func(p string) string { return p }
	mkUnit := func(comp []string, name func(string) string) *unit {
		u := &unit{preds: map[string]bool{}, recursive: len(comp) > 1 || self[comp[0]]}
		for _, p := range comp {
			q := name(p)
			u.order = append(u.order, q)
			u.preds[q] = true
			e.unitOf[q] = u
			e.relFor(q).counted = len(byHead[p]) > 0 && !u.recursive
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
			e.units = append(e.units, mkUnit(comp, same))
			out = append(out, own...)
			continue
		}
		u := &unit{preds: both, order: comp, recursive: alternates || len(comp) > 1 || self[comp[0]], alternates: alternates}
		subs := [][]string{comp}
		if alternates {
			subs = sccs(comp, pos, both)
		}
		for _, p := range comp {
			e.three[p] = true
			e.rels[possible(p)] = &relation{name: possible(p)}
		}
		for _, sub := range subs {
			lo, up := mkUnit(sub, same), mkUnit(sub, possible)
			if alternates {
				lo.group, up.group = u, u
			}
			u.lower, u.upper = append(u.lower, lo), append(u.upper, up)
		}
		for _, r := range own {
			out = append(out, e.half(r, false), e.half(r, true))
		}
		e.units = append(e.units, u)
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
// base's frozen tables when the program only reads the predicate, the
// database stores it and the engine is not maintained, an empty private
// relation otherwise (mutations may introduce predicates the program never
// mentions).
func (e *Engine) relFor(pred string) *relation {
	if r, ok := e.rels[pred]; ok {
		return r
	}
	r := &relation{name: pred}
	if !e.derives[pred] && !e.maintain {
		if br := e.base.relation(pred); br != nil {
			shared := br.tables(&e.Use)
			r.tables = append(r.tables, shared.tables...)
			r.ndb = shared.ndb
		}
	}
	e.rels[pred] = r
	return r
}

// NumRows returns the number of rows stored as members right now, over all
// tables the engine reads — what Limits.MaxRows bounds.
func (e *Engine) NumRows() int { return e.nrows }

// Derives reports whether the program adds to the predicate — it heads a rule
// or a program fact — so that its content is the engine's to report; every
// other predicate's content is exactly what the database stores.
func (e *Engine) Derives(pred string) bool { return e.derives[pred] }

// factRow maps a fact to its table and row. With create unset, a fact the
// engine holds no row for yields noRow (and possibly a nil table).
func (e *Engine) factRow(f datalog.Fact, create bool) (*table, int32) {
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
		return t, t.internRow(e.rowBuf)
	}
	t := rel.table(len(f.Args))
	if t == nil {
		return nil, noRow
	}
	if r, ok := t.Find(e.rowBuf); ok {
		return t, r
	}
	return t, noRow
}

// addRow makes row r a member. Re-adding a row removed earlier in the batch
// is a pure flag flip: its slot and index entries never left.
func (e *Engine) addRow(t *table, r int32) error {
	f := t.flags[r]
	if f&flagLive != 0 {
		return nil
	}
	f |= flagLive
	if f&flagRemoved != 0 {
		f &^= flagRemoved
	} else {
		f |= flagAdded
	}
	t.flags[r] = f
	t.touch(r)
	e.nrows++
	return e.checkRows()
}

func (e *Engine) checkRows() error {
	if e.nrows > e.lim.MaxRows {
		return fmt.Errorf("%w: evaluation stores more than %d facts", algebra.ErrBudget, e.lim.MaxRows)
	}
	return nil
}

// removeRow makes row r a non-member; its slot and index entries stay until
// the batch ends so the old state remains probeable.
func (e *Engine) removeRow(t *table, r int32) {
	f := t.flags[r]
	if f&flagLive == 0 {
		return
	}
	f &^= flagLive
	if f&flagAdded != 0 {
		f &^= flagAdded
	} else {
		f |= flagRemoved
	}
	t.flags[r] = f
	t.touch(r)
	e.nrows--
}

// settle brings row r's membership in line with its support.
func (e *Engine) settle(t *table, r int32) error {
	want, have := t.supported(r), t.flags[r]&flagLive != 0
	switch {
	case want && !have:
		return e.addRow(t, r)
	case have && !want:
		e.removeRow(t, r)
	}
	return nil
}

// stop reports a fired interrupt as an error wrapping algebra.ErrCanceled.
func (e *Engine) stop() error {
	for _, ch := range e.lim.Interrupts {
		select {
		case <-ch:
			return fmt.Errorf("%w (interrupt fired during rule evaluation)", algebra.ErrCanceled)
		default:
		}
	}
	return nil
}

// inserter returns the consumer of an insert phase: a derived head becomes
// derivable, and — when that makes it a member — joins the worklist.
func (e *Engine) inserter(work *[]rowRef) emitFunc {
	return func(t *table, row []intern.ID) error {
		r := t.internRow(row)
		if t.flags[r]&flagDerived != 0 {
			return nil
		}
		t.flags[r] |= flagDerived
		if t.flags[r]&flagLive == 0 {
			if err := e.addRow(t, r); err != nil {
				return err
			}
			*work = append(*work, rowRef{t, r})
		}
		return nil
	}
}

// propagate drains the insert worklist through the unit's rules.
func (e *Engine) propagate(u *unit, work *[]rowRef, insert emitFunc) error {
	for len(*work) > 0 {
		if err := e.stop(); err != nil {
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

// pivotUnit propagates one same-unit row change through every positive
// occurrence of its table in the unit's rules. Non-pivot literals read the
// current state when constructive (an insert phase), the pre-batch state
// otherwise (an over-delete phase). Negated same-unit occurrences cannot
// exist: a component that negates itself is split into halves that negate
// each other.
func (e *Engine) pivotUnit(u *unit, rw rowRef, constructive bool, emit emitFunc) error {
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
			if _, err := e.exec(cr, lit.pivot, rw.t.Row(rw.r), mode, li, emit); err != nil {
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
// (alternate). It serves the initial evaluation and a maintained engine's
// rebuild (Apply) alike, under a fresh step budget. The batch bookkeeping it
// leaves on private tables (flagAdded, the touched lists) is Apply's to
// read or drop.
func (e *Engine) Build() error {
	e.Steps, e.nrows = 0, 0
	e.UnitStats = e.UnitStats[:0]
	for name := range e.rels {
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
	for _, u := range e.units {
		if err := e.stop(); err != nil {
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
		if e.observed && (e.Steps > steps || st.Alternations > 0) {
			st.Preds, st.Recursive = u.order, u.recursive
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
		for _, t := range e.rels[p].tables {
			if t.frozen {
				e.nrows += int(t.slots())
				continue
			}
			for r := int32(0); r < t.slots(); r++ {
				if t.flags[r]&(flagDB|flagProg) != 0 {
					if err := e.addRow(t, r); err != nil {
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
func (e *Engine) buildUnit(u *unit) error {
	var work []rowRef
	emit := e.inserter(&work)
	if !u.recursive {
		emit = func(t *table, row []intern.ID) error {
			r := t.internRow(row)
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
		return e.propagate(u, &work, emit)
	}
	for _, w := range work {
		if err := e.addRow(w.t, w.r); err != nil {
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
// maintained (maintainUnit) under the rows the other's last turn moved as
// under a mutation batch, until a turn moves none. True rows only ever
// appear and possible rows only ever disappear, so no turn closes anything
// again: the work follows the rows that flip, whatever the number of turns.
// It reports the pairs of turns begun and the rows they moved.
func (e *Engine) alternate(u *unit) (pairs, flips int, err error) {
	halves := [2][]*unit{u.upper, u.lower}
	// turn runs f over one half's units, bottom-up. A true row is a possible
	// row and counted as one (Limits.MaxRows bounds the possible rows): the
	// lower half counts what it adds from zero, which cannot pass what the
	// possible rows stayed under, and the count is dropped.
	turn := func(half int, f func(*unit) error) error {
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
	if err := turn(1, func(h *unit) error { return e.loadFacts(h.order...) }); err != nil {
		return 0, 0, err
	}
	if u.alternates {
		// From here on a batch flag means "moved in the half's last turn":
		// what the builds so far left on any table is no delta.
		e.endBatch()
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
	var tables [2][]*table
	for i, half := range halves {
		for _, h := range half {
			for _, p := range h.order {
				tables[i] = append(tables[i], e.rels[p].tables...)
			}
		}
	}
	for n := 0; ; n++ {
		if err := e.stop(); err != nil {
			return 0, 0, err
		}
		for _, t := range tables[n&1] {
			t.endBatch() // the other half has seen what the last turn moved
		}
		err := turn(n&1, func(h *unit) error {
			_, _, err := e.maintainUnit(h)
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
	rel := e.rels[pred]
	switch {
	case !undef && rel != nil:
		rel.each(f)
	case undef && e.three[pred]:
		e.rels[possible(pred)].each(func(row []intern.ID) {
			if t := rel.table(len(row)); t != nil {
				if r, ok := t.Find(row); ok && t.has(r, false) {
					return // true
				}
			}
			f(row)
		})
	}
}
