// Package ground instantiates a deductive program into a ground program: a
// finite set of propositional rules over numbered ground atoms. Every
// semantics engine in internal/semantics operates on this representation.
//
// The instantiation is the standard over-approximation: an atom is considered
// *possible* if it is derivable when every negative literal is assumed to
// hold. The ground program contains one propositional rule per rule instance
// whose positive body consists of possible atoms; negative body atoms are
// numbered whether or not they are possible (atoms with no deriving rules are
// simply never derived by any semantics, which is the correct behaviour).
//
// Ground is the plain semi-naive instantiation: pass 0 fires the rules
// without positive atoms, and every later pass enumerates each rule once per
// positive literal, that literal reading only the atoms the previous pass
// derived. Two devices hold its cost to the size of its output: a positive
// literal's candidates come from an index on the first argument its plan step
// knows before matching, and each literal reads a window of its predicate's
// atoms in derivation order, found by binary search. Atoms are numbered in
// first-sight order, so everything computed from a ground program — stable
// models in particular — comes out in one deterministic order.
//
// Because the paper's framework permits interpreted functions on domains
// (SUCC, +, tup, ...), instantiation may diverge; Budget caps the number of
// atoms and ground rules, and Ground returns a *BudgetError when a cap is
// hit, which callers surface as "unknown within budget" — the executable face
// of the paper's undecidability results (Propositions 2.3, 3.2 and 6.3).
package ground

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"algrec/internal/datalog"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Budget caps the resources instantiation may consume.
type Budget struct {
	MaxAtoms int // maximum number of distinct ground atoms (0 = default)
	MaxRules int // maximum number of distinct ground rules (0 = default)
	// Interrupt, when non-nil, is polled between (rule, pass) enumerations:
	// once the channel is closed, grounding stops with an error wrapping
	// ErrCanceled. Callers with a context map ctx.Done() here.
	Interrupt <-chan struct{}
}

// DefaultBudget is used for zero-valued Budget fields.
var DefaultBudget = Budget{MaxAtoms: 2_000_000, MaxRules: 8_000_000}

func (b Budget) withDefaults() Budget {
	if b.MaxAtoms <= 0 {
		b.MaxAtoms = DefaultBudget.MaxAtoms
	}
	if b.MaxRules <= 0 {
		b.MaxRules = DefaultBudget.MaxRules
	}
	return b
}

// BudgetError reports that instantiation exceeded its budget.
type BudgetError struct {
	What  string // "atoms" or "rules"
	Limit int
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("ground: budget exceeded: more than %d %s; the program may define an infinite relation", e.Limit, e.What)
}

// ErrCanceled is wrapped by errors reporting that grounding stopped because
// Budget.Interrupt fired (a timeout or an explicit cancellation).
var ErrCanceled = errors.New("ground: grounding canceled")

// stop returns a non-nil error wrapping ErrCanceled once Interrupt has
// fired, and nil otherwise (including when no Interrupt is set).
func (b Budget) stop() error {
	if b.Interrupt == nil {
		return nil
	}
	select {
	case <-b.Interrupt:
		return fmt.Errorf("%w (interrupt fired between rule enumerations)", ErrCanceled)
	default:
		return nil
	}
}

// Rule is a propositional ground rule over atom ids. Pos and Neg are sorted.
type Rule struct {
	Head int
	Pos  []int
	Neg  []int
}

// Program is a ground program: numbered atoms plus propositional rules.
type Program struct {
	atoms  []datalog.Fact
	keys   []string         // canonical key per atom id
	ids    map[string]int   // atom id per canonical key
	byPred map[string][]int // atom ids per predicate, in numbering order
	Rules  []Rule
}

// NumAtoms returns the number of ground atoms.
func (g *Program) NumAtoms() int { return len(g.atoms) }

// Atom returns the atom with the given id.
func (g *Program) Atom(id int) datalog.Fact { return g.atoms[id] }

// AtomKey returns the canonical key (datalog.Fact.Key) of the atom with the
// given id.
func (g *Program) AtomKey(id int) string { return g.keys[id] }

// Lookup returns the id of the given fact and whether it is an atom of the
// program.
func (g *Program) Lookup(f datalog.Fact) (int, bool) {
	id, ok := g.ids[f.Key()]
	return id, ok
}

// AtomsOf returns the ids of all atoms of the given predicate.
func (g *Program) AtomsOf(pred string) []int { return g.byPred[pred] }

// column names one argument position of one predicate's atoms of one arity:
// the unit an index is kept on.
type column struct {
	pred       string
	arity, col int
}

// indexKey is one bucket of a column index: the atoms whose argument at the
// column is the value with the given interned id.
type indexKey struct {
	column
	val intern.ID
}

// step is one step of a rule's body plan, with the column its candidates
// are looked up on (col < 0: every atom of the predicate is a candidate).
type step struct {
	datalog.PlanStep
	col int
}

// plannedRule is a rule with its body in executable order.
type plannedRule struct {
	head     datalog.Atom
	steps    []step
	negs     []datalog.Atom
	posPreds []string // predicate of each positive literal, by PosIdx
}

type grounder struct {
	prog   *Program
	budget Budget
	rules  map[string]bool // key text of every ground rule emitted
	// derived lists, per predicate, the atoms that have appeared as a rule
	// head, in derivation order; seq gives each atom its position there
	// (-1 while it is only a negative body atom).
	derived map[string][]int
	seq     []int
	// index holds the derived atoms per bucket of every column some plan
	// step looks up, in derivation order; indexed lists those columns per
	// predicate.
	index   map[indexKey][]int
	indexed map[string][]column
	bind    datalog.Binding
	trail   []datalog.Var // the variables bound, in binding order
	posIDs  []int         // the positive atoms matched so far, in plan order
	keyBuf  []byte
}

// Ground instantiates the program under the given budget.
func Ground(p *datalog.Program, budget Budget) (*Program, error) {
	g := &grounder{
		prog:    &Program{ids: map[string]int{}, byPred: map[string][]int{}},
		budget:  budget.withDefaults(),
		rules:   map[string]bool{},
		derived: map[string][]int{},
		index:   map[indexKey][]int{},
		indexed: map[string][]column{},
		bind:    datalog.Binding{},
	}
	var planned []plannedRule
	for _, r := range p.Rules {
		pr, err := g.plan(r)
		if err != nil {
			return nil, err
		}
		planned = append(planned, pr)
	}

	// Pass 0: rules with no positive atoms (facts included) fire once.
	for _, pr := range planned {
		if len(pr.posPreds) > 0 {
			continue
		}
		if err := g.budget.stop(); err != nil {
			return nil, err
		}
		if err := g.enumerate(pr, 0, window{delta: -1}); err != nil {
			return nil, err
		}
	}

	// Delta passes: a rule instance is enumerated when one of its positive
	// atoms matches an atom derived in the previous pass.
	passes := 0
	prev := map[string]int{}
	for {
		cur := map[string]int{}
		grew := false
		for pred, ids := range g.derived {
			cur[pred] = len(ids)
			grew = grew || len(ids) > prev[pred]
		}
		if !grew {
			break
		}
		passes++
		for _, pr := range planned {
			for d, pred := range pr.posPreds {
				if err := g.budget.stop(); err != nil {
					return nil, err
				}
				// An empty delta window admits no complete match; enumerating
				// the literals before it anyway would cost a scan per pass.
				if cur[pred] == prev[pred] {
					continue
				}
				if err := g.enumerate(pr, 0, window{prev, cur, d}); err != nil {
					return nil, err
				}
			}
		}
		prev = cur
	}
	if c := obsv.Default(); c != nil {
		c.Collect(obsv.GroundStats{Atoms: g.prog.NumAtoms(), Rules: len(g.prog.Rules), Passes: passes})
	}
	return g.prog, nil
}

// plan orders the rule's body and picks, for each positive literal, the
// first argument that is known before it is matched — a constant, a
// function term, or a variable an earlier step binds — as the column its
// candidates are looked up on.
func (g *grounder) plan(r datalog.Rule) (plannedRule, error) {
	bp, err := datalog.PlanRule(r)
	if err != nil {
		return plannedRule{}, fmt.Errorf("ground: %w", err)
	}
	pr := plannedRule{head: r.Head, negs: bp.Negs, posPreds: make([]string, bp.NumPos)}
	bound := map[datalog.Var]bool{}
	for _, st := range bp.Steps {
		s := step{PlanStep: st, col: -1}
		switch st.Kind {
		case datalog.StepMatch:
			pr.posPreds[st.PosIdx] = st.Atom.Pred
			for j, a := range st.Atom.Args {
				if v, isVar := a.(datalog.Var); !isVar || bound[v] {
					s.col = j
					break
				}
			}
			if s.col >= 0 {
				c := column{st.Atom.Pred, len(st.Atom.Args), s.col}
				if !slices.Contains(g.indexed[c.pred], c) {
					g.indexed[c.pred] = append(g.indexed[c.pred], c)
				}
			}
			for v := range datalog.VarsOfAtom(st.Atom) {
				bound[v] = true
			}
		case datalog.StepAssign:
			bound[st.AssignVar] = true
		}
		pr.steps = append(pr.steps, s)
	}
	return pr, nil
}

// window restricts which atoms, by derivation sequence, each positive
// literal may match during a delta pass: the literal at delta only the
// previous pass's atoms, earlier literals only older ones, later literals
// any atom derived before the pass (the semi-naive decomposition, which
// enumerates each rule instance once). delta < 0 is pass 0, where no
// literal is positive.
type window struct {
	prev, cur map[string]int
	delta     int
}

func (w window) bounds(posIdx int, pred string) (lo, hi int) {
	switch {
	case posIdx < w.delta:
		return 0, w.prev[pred]
	case posIdx == w.delta:
		return w.prev[pred], w.cur[pred]
	default:
		return 0, w.cur[pred]
	}
}

// enumerate walks the plan from step si under the current binding,
// backtracking, and fires the rule for every complete match.
func (g *grounder) enumerate(pr plannedRule, si int, w window) error {
	if si == len(pr.steps) {
		return g.fire(pr)
	}
	st := pr.steps[si]
	switch st.Kind {
	case datalog.StepMatch:
		cands := g.derived[st.Atom.Pred]
		if st.col >= 0 {
			v, err := datalog.EvalTerm(st.Atom.Args[st.col], g.bind)
			if err != nil {
				return err
			}
			cands = g.index[indexKey{column{st.Atom.Pred, len(st.Atom.Args), st.col}, intern.Global().Intern(v)}]
		}
		lo, hi := w.bounds(st.PosIdx, st.Atom.Pred)
		// Candidates are in derivation order, so the window starts where a
		// binary search puts it; skipping to it linearly instead makes the
		// delta passes quadratic in the candidates, cubic overall on
		// transitive-closure-style programs.
		cands = cands[sort.Search(len(cands), func(i int) bool { return g.seq[cands[i]] >= lo }):]
		for _, id := range cands {
			if g.seq[id] >= hi {
				break
			}
			mark := len(g.trail)
			ok, err := g.match(st.Atom, g.prog.atoms[id].Args)
			if err == nil && ok {
				g.posIDs = append(g.posIDs, id)
				err = g.enumerate(pr, si+1, w)
				g.posIDs = g.posIDs[:len(g.posIDs)-1]
			}
			for _, v := range g.trail[mark:] {
				delete(g.bind, v)
			}
			g.trail = g.trail[:mark]
			if err != nil {
				return err
			}
		}
		return nil
	case datalog.StepAssign:
		v, err := datalog.EvalTerm(st.Term, g.bind)
		if err != nil {
			return err
		}
		g.bind[st.AssignVar] = v
		err = g.enumerate(pr, si+1, w)
		delete(g.bind, st.AssignVar)
		return err
	default: // datalog.StepTest
		l, err := datalog.EvalTerm(st.Cmp.L, g.bind)
		if err != nil {
			return err
		}
		r, err := datalog.EvalTerm(st.Cmp.R, g.bind)
		if err != nil {
			return err
		}
		if ok, err := datalog.EvalCmp(st.Cmp.Op, l, r); err != nil || !ok {
			return err
		}
		return g.enumerate(pr, si+1, w)
	}
}

// match matches an atom pattern against a ground atom's arguments under the
// current binding, binding the pattern's unbound variables and pushing them
// on the trail, for the caller to unbind whether or not the match succeeded.
func (g *grounder) match(pat datalog.Atom, args []value.Value) (bool, error) {
	if len(pat.Args) != len(args) {
		return false, nil
	}
	for i, t := range pat.Args {
		if v, isVar := t.(datalog.Var); isVar {
			if _, seen := g.bind[v]; !seen {
				g.bind[v] = args[i]
				g.trail = append(g.trail, v)
				continue
			}
		}
		x, err := datalog.EvalTerm(t, g.bind)
		if err != nil || !value.Equal(x, args[i]) {
			return false, err
		}
	}
	return true, nil
}

// fire records the ground rule of a complete match, numbering its head and
// negative atoms, and marks the head derived.
func (g *grounder) fire(pr plannedRule) error {
	head, err := g.atom(pr.head)
	if err != nil {
		return err
	}
	var neg []int
	for _, a := range pr.negs {
		id, err := g.atom(a)
		if err != nil {
			return err
		}
		neg = append(neg, id)
	}
	pos := slices.Clone(g.posIDs)
	sort.Ints(pos)
	sort.Ints(neg)
	key := strconv.AppendInt(g.keyBuf[:0], int64(head), 10)
	for _, ids := range [][]int{pos, neg} {
		key = append(key, '|')
		for _, id := range ids {
			key = strconv.AppendInt(append(key, ' '), int64(id), 10)
		}
	}
	g.keyBuf = key
	if !g.rules[string(key)] {
		if len(g.prog.Rules) >= g.budget.MaxRules {
			return &BudgetError{What: "rules", Limit: g.budget.MaxRules}
		}
		g.rules[string(key)] = true
		g.prog.Rules = append(g.prog.Rules, Rule{Head: head, Pos: pos, Neg: neg})
	}
	g.markDerived(head)
	return nil
}

// atom instantiates an atom under the current binding and returns its id,
// numbering it if it is new.
func (g *grounder) atom(a datalog.Atom) (int, error) {
	f, err := datalog.EvalGroundAtom(a, g.bind)
	if err != nil {
		return 0, err
	}
	key := f.Key()
	if id, ok := g.prog.ids[key]; ok {
		return id, nil
	}
	if len(g.prog.atoms) >= g.budget.MaxAtoms {
		return 0, &BudgetError{What: "atoms", Limit: g.budget.MaxAtoms}
	}
	id := len(g.prog.atoms)
	g.prog.atoms = append(g.prog.atoms, f)
	g.prog.keys = append(g.prog.keys, key)
	g.prog.ids[key] = id
	g.prog.byPred[f.Pred] = append(g.prog.byPred[f.Pred], id)
	g.seq = append(g.seq, -1)
	return id, nil
}

// markDerived appends a rule head to its predicate's derivation order and
// to the buckets of its indexed columns, once.
func (g *grounder) markDerived(id int) {
	if g.seq[id] >= 0 {
		return
	}
	f := g.prog.atoms[id]
	g.seq[id] = len(g.derived[f.Pred])
	g.derived[f.Pred] = append(g.derived[f.Pred], id)
	for _, c := range g.indexed[f.Pred] {
		if c.arity == len(f.Args) {
			k := indexKey{c, intern.Global().Intern(f.Args[c.col])}
			g.index[k] = append(g.index[k], id)
		}
	}
}
