package rel

import (
	"fmt"

	"algrec/internal/datalog"
	"algrec/internal/value/intern"
)

// A rule is compiled once, when its engine is built, into one join plan per
// entry pattern — the way a rule execution starts decides what is bound, and
// what is bound decides the order worth running the body in:
//
//   - from scratch (builds and rebuilds): nothing bound, every literal runs;
//   - pivot on literal i (delta propagation): literal i is unified with a
//     delta row and skipped, the rest runs from its bindings;
//   - head-bound (DRed re-derivation): the head is unified with the row whose
//     derivability is in question, and the body runs as an existence test.
//
// An engine that only builds (Config.Maintain unset) compiles the first, and
// of the second what semi-naive propagation inside a recursive unit enters.
//
// datalog.PlanRuleFrom chooses each order from the binding pattern. Which
// state of a relation a literal reads — old or new — is decided by the
// literal's index in the body, never by where the plan placed it, which is
// what makes reordering sound for the counting strategy's split views.

// argKind says how one argument position of an atom meets a row.
type argKind uint8

const (
	argBind  argKind = iota // a free variable: the column's ID is stored in its slot
	argSlot                 // a bound variable: the column must equal its slot
	argConst                // a constant: the column must equal its ID
	argTerm                 // a computed term: evaluated, interned, compared
)

// argSpec is one compiled argument position.
type argSpec struct {
	kind argKind
	slot int          // argBind, argSlot: the variable's frame slot
	id   intern.ID    // argConst
	term datalog.Term // argTerm
}

// opKind discriminates the steps of an entry plan.
type opKind uint8

const (
	opMatch  opKind = iota // enumerate the rows of a positive atom's view that agree with the frame
	opNeg                  // fail if the negated atom's instance is in its view
	opAssign               // bind a slot to an evaluated term
	opTest                 // evaluate a comparison
	opCheck                // a computed argument of the entry atom: evaluate and compare with the entry row
)

// op is one step of an entry plan.
type op struct {
	kind opKind

	// opMatch, opNeg
	lit  int // index into compiledRule.lits: selects the view
	t    *table
	args []argSpec
	keys []int       // opMatch: columns determined before the row is read
	buf  []intern.ID // the determined columns' IDs (opNeg: the whole instance)

	slot int            // opAssign
	term datalog.Term   // opAssign, opCheck
	col  int            // opCheck: the entry row's column
	cmp  datalog.LitCmp // opTest
}

// entryPlan is the compiled plan of one entry pattern: how the entry atom
// (nil for the from-scratch entry) binds the frame, then the steps, which
// exec runs.
type entryPlan struct {
	entry []argSpec
	ops   []op
}

// literal is one atom literal of a rule body, in textual order.
type literal struct {
	neg   bool
	t     *table
	pivot *entryPlan // the plan entered from a delta row of this literal
}

// compiledRule is one compiled non-fact rule: its head, its atom literals,
// and a plan per entry pattern.
type compiledRule struct {
	rule     datalog.Rule
	head     *table
	headArgs []argSpec
	headBuf  []intern.ID
	lits     []literal
	slots    map[datalog.Var]int
	frame    []intern.ID

	scratch *entryPlan // from scratch
	bound   *entryPlan // head-bound
}

// compileRule compiles r. Tables for every (predicate, arity) the rule
// mentions are created on the way, and the columns its plans probe indexed.
func (e *Engine) compileRule(r datalog.Rule) (*compiledRule, error) {
	cr := &compiledRule{rule: r, slots: map[datalog.Var]int{}}
	for v := range datalog.VarsOfRule(r) {
		cr.slots[v] = len(cr.slots)
	}
	cr.frame = make([]intern.ID, len(cr.slots))
	cr.head = e.tableOf(r.Head)
	cr.headBuf = make([]intern.ID, len(r.Head.Args))

	// litOf maps a body index to the literal's index among the atoms.
	litOf := make([]int, len(r.Body))
	for i, l := range r.Body {
		litOf[i] = -1
		if la, ok := l.(datalog.LitAtom); ok {
			litOf[i] = len(cr.lits)
			cr.lits = append(cr.lits, literal{neg: la.Neg, t: e.tableOf(la.Atom)})
		}
	}

	var err error
	if cr.scratch, err = e.compileEntry(cr, nil, -1, litOf); err != nil {
		return nil, err
	}
	// A build only ever pivots on a positive literal of the rule's own
	// recursive unit (propagate) — and, in half of an alternating component,
	// on every literal of the component, re-deriving head-bound what a
	// recursive half over-deletes; maintenance pivots on every literal.
	unit := e.unitOf[r.Head.Pred]
	if e.maintain || (unit.group != nil && unit.recursive) {
		if cr.bound, err = e.compileEntry(cr, &r.Head, -1, litOf); err != nil {
			return nil, err
		}
	}
	for i, l := range r.Body {
		la, ok := l.(datalog.LitAtom)
		if !ok {
			continue
		}
		p := la.Atom.Pred
		if !(e.maintain || (!la.Neg && unit.preds[p]) || (unit.group != nil && unit.group.preds[p])) {
			continue
		}
		if cr.lits[litOf[i]].pivot, err = e.compileEntry(cr, &la.Atom, i, litOf); err != nil {
			return nil, err
		}
	}
	// The head is instantiated when every variable is bound.
	all := make([]bool, len(cr.slots))
	for i := range all {
		all[i] = true
	}
	cr.headArgs = e.compileArgs(cr, r.Head.Args, all)
	return cr, nil
}

// compileEntry compiles the plan entered by unifying atom (nil: nothing)
// with a row, with body literal skip left out.
func (e *Engine) compileEntry(cr *compiledRule, atom *datalog.Atom, skip int, litOf []int) (*entryPlan, error) {
	p := &entryPlan{}
	bound := make([]bool, len(cr.slots))
	// Computed arguments of the entry atom cannot bind anything; each becomes
	// a check against the entry row, run once its variables are bound.
	var checks []op
	var entryVars []datalog.Var
	if atom != nil {
		p.entry = e.compileArgs(cr, atom.Args, bound)
		for k, a := range p.entry {
			switch a.kind {
			case argBind:
				entryVars = append(entryVars, atom.Args[k].(datalog.Var))
			case argTerm:
				checks = append(checks, op{kind: opCheck, term: a.term, col: k})
			}
		}
	}
	flush := func() {
		rest := checks[:0]
		for _, c := range checks {
			if termBound(cr, c.term, bound) {
				p.ops = append(p.ops, c)
			} else {
				rest = append(rest, c)
			}
		}
		checks = rest
	}
	flush()

	bp, err := datalog.PlanRuleFrom(cr.rule, entryVars, skip)
	if err != nil {
		return nil, err
	}
	for _, st := range bp.Steps {
		switch st.Kind {
		case datalog.StepMatch:
			o := op{kind: opMatch, lit: litOf[st.Lit], t: cr.lits[litOf[st.Lit]].t}
			for k, b := range st.Bound {
				if b {
					o.keys = append(o.keys, k)
				}
			}
			o.args = e.compileArgs(cr, st.Atom.Args, bound)
			o.buf = make([]intern.ID, len(o.args))
			// A whole-row probe goes through the hash; anything less needs
			// the postings of the columns it may choose among.
			if len(o.keys) < len(o.args) {
				for _, k := range o.keys {
					if o.t.index(k) {
						e.Use.Indexes++
					}
				}
			}
			p.ops = append(p.ops, o)
		case datalog.StepAssign:
			slot := cr.slots[st.AssignVar]
			bound[slot] = true
			p.ops = append(p.ops, op{kind: opAssign, slot: slot, term: st.Term})
		case datalog.StepTest:
			p.ops = append(p.ops, op{kind: opTest, cmp: st.Cmp})
		default:
			return nil, fmt.Errorf("rel: unknown plan step kind %v", st.Kind)
		}
		flush()
	}
	for i, na := range bp.Negs {
		li := litOf[bp.NegLits[i]]
		o := op{kind: opNeg, lit: li, t: cr.lits[li].t, args: e.compileArgs(cr, na.Args, bound)}
		o.buf = make([]intern.ID, len(o.args))
		p.ops = append(p.ops, o)
	}
	if len(checks) > 0 {
		return nil, fmt.Errorf("rel: rule %s: entry argument %s is never evaluable", cr.rule, checks[0].term)
	}
	return p, nil
}

// compileArgs compiles an atom's argument positions against the slots bound
// so far, marking the variables the atom binds.
func (e *Engine) compileArgs(cr *compiledRule, args []datalog.Term, bound []bool) []argSpec {
	out := make([]argSpec, len(args))
	for k, t := range args {
		switch tt := t.(type) {
		case datalog.Var:
			slot := cr.slots[tt]
			if bound[slot] {
				out[k] = argSpec{kind: argSlot, slot: slot}
			} else {
				out[k] = argSpec{kind: argBind, slot: slot}
				bound[slot] = true
			}
		case datalog.Const:
			out[k] = argSpec{kind: argConst, id: e.in.Intern(tt.V)}
		default:
			out[k] = argSpec{kind: argTerm, term: t}
		}
	}
	return out
}

// termBound reports whether every variable of t has a bound slot.
func termBound(cr *compiledRule, t datalog.Term, bound []bool) bool {
	for v := range datalog.VarsOfTerm(t) {
		if !bound[cr.slots[v]] {
			return false
		}
	}
	return true
}

// tableOf returns the table an atom's instances live in.
func (e *Engine) tableOf(a datalog.Atom) *table {
	return e.relFor(a.Pred).tableFor(len(a.Args))
}
