// Package ground instantiates a deductive program into a ground program: a
// finite set of propositional rules over interned ground atoms. Every
// semantics engine in internal/semantics operates on this representation.
//
// The instantiation is the standard over-approximation: an atom is considered
// *possible* if it is derivable when every negative literal is assumed to
// hold. The ground program contains one propositional rule per rule instance
// whose positive body consists of possible atoms; negative body atoms are
// interned whether or not they are possible (atoms with no deriving rules are
// simply never derived by any semantics, which is the correct behaviour).
//
// Because the paper's framework permits interpreted functions on domains
// (SUCC, +, tup, ...), instantiation may diverge; Budget caps the number of
// atoms, ground rules, and passes, and Ground returns a *BudgetError when a
// cap is hit, which callers surface as "unknown within budget" — the
// executable face of the paper's undecidability results (Propositions 2.3,
// 3.2 and 6.3).
package ground

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

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

// Rule is a propositional ground rule over atom ids.
type Rule struct {
	Head int
	Pos  []int
	Neg  []int
}

// Program is a ground program: interned atoms plus propositional rules.
//
// Atoms are deduplicated by their hash-consed argument-ID row in a compact
// intern.Relation per (predicate, arity), and numbered in first-sight order.
type Program struct {
	numAtoms int
	atoms    []datalog.Fact           // lazily materialized from rows
	keys     []string                 // canonical key per atom id, lazy like atoms
	tables   map[predArity]*predTable // argument-ID rows per predicate
	byPred   map[string][]int         // atom ids per predicate, in interning order
	rows     [][]intern.ID            // argument-ID row per atom id (views into tables)
	Rules    []Rule
	// atomsOnce/keysOnce guard the lazy materialization of atoms and keys
	// from the relation rows: grounding itself never builds a datalog.Fact or
	// formats a key string, and programs that are only ever run through a
	// truth-vector engine never build them at all.
	atomsOnce sync.Once
	keysOnce  sync.Once
}

// predArity keys the per-predicate fact tables; facts of the same predicate
// name but different arity are distinct atoms, so each arity gets its own
// fixed-width relation.
type predArity struct {
	pred  string
	arity int
}

// predTable is one predicate's compact fact store: the argument-ID rows in a
// flat relation, plus the global atom id of each row (row indices are local
// to the table, atom ids are program-wide).
type predTable struct {
	rel     *intern.Relation
	atomIDs []int
}

// NumAtoms returns the number of interned ground atoms.
func (g *Program) NumAtoms() int { return g.numAtoms }

// Words64 returns the atom count rounded up to 64-bit words: the number of
// uint64 words a dense truth vector over the atom ids needs. The semantics
// engines size their bitsets with it.
func (g *Program) Words64() int { return (g.numAtoms + 63) / 64 }

// Atom returns the interned atom with the given id.
func (g *Program) Atom(id int) datalog.Fact {
	g.atomsOnce.Do(g.materializeAtoms)
	return g.atoms[id]
}

// AtomKey returns the canonical key of the interned atom with the given id.
// Every key is computed on the first call, once; callers that would rebuild
// it via Atom(id).Key() should use this instead.
func (g *Program) AtomKey(id int) string {
	g.keysOnce.Do(g.materializeKeys)
	return g.keys[id]
}

// materializeAtoms builds the datalog.Fact view of every atom from the
// compact relation rows. Guarded by atomsOnce: safe when a ground program is
// shared across goroutines (e.g. the parallel stable search).
func (g *Program) materializeAtoms() {
	in := intern.Global()
	atoms := make([]datalog.Fact, g.numAtoms)
	for pa, t := range g.tables {
		for i, id := range t.atomIDs {
			row := t.rel.Row(i)
			args := make([]value.Value, len(row))
			for j, rid := range row {
				args[j] = in.Lookup(rid)
			}
			atoms[id] = datalog.Fact{Pred: pa.pred, Args: args}
		}
	}
	g.atoms = atoms
}

// materializeKeys formats every atom's canonical key (on the first AtomKey
// call).
func (g *Program) materializeKeys() {
	g.atomsOnce.Do(g.materializeAtoms)
	keys := make([]string, g.numAtoms)
	for id := range keys {
		keys[id] = g.atoms[id].Key()
	}
	g.keys = keys
}

// Lookup returns the id of the given fact and whether it is interned.
func (g *Program) Lookup(f datalog.Fact) (int, bool) {
	t, ok := g.tables[predArity{f.Pred, len(f.Args)}]
	if !ok {
		return 0, false
	}
	in := intern.Global()
	row := make([]intern.ID, len(f.Args))
	for i, a := range f.Args {
		row[i] = in.Intern(a)
	}
	idx, ok := t.rel.Find(row)
	if !ok {
		return 0, false
	}
	return t.atomIDs[idx], true
}

// AtomRow returns the argument-ID row of the interned atom with the given id,
// a read-only view. It lets a caller sort and render a few atoms without
// materializing every atom of the program.
func (g *Program) AtomRow(id int) []intern.ID { return g.rows[id] }

// AtomsOf returns the ids of all interned atoms of the given predicate.
func (g *Program) AtomsOf(pred string) []int { return g.byPred[pred] }

// Preds returns all predicate names with interned atoms, sorted.
func (g *Program) Preds() []string {
	out := make([]string, 0, len(g.byPred))
	for p := range g.byPred {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

type grounder struct {
	prog   *Program
	budget Budget
	// in is the process-global interner the grounder deduplicates and
	// indexes through.
	in *intern.Interner
	// byPredDerived holds, per predicate, the atoms that have appeared as a
	// rule head or fact ("possible" atoms) in derivation order;
	// negative-only atoms live in the table but never in byPredDerived.
	byPredDerived map[string][]int
	derived       []bool // per atom id, grown alongside seqOf
	// seqOf gives each atom id its position within byPredDerived of its
	// predicate (-1 before derivation); the delta-driven passes use it to
	// range-restrict index probe results.
	seqOf []int
	// indexes maps a matchMask signature to (mixed hash of the projected
	// argument-ID row -> atom ids in derivation order); hash collisions only
	// add candidates, which the matcher rejects, so probes stay exact.
	// masksByPred lists the masks registered per predicate so markDerived
	// can maintain the indexes incrementally.
	indexes     map[string]map[uint64][]int
	masksByPred map[string][]matchMask
	// rows gives each atom id its argument-ID row (a view into its
	// predTable's flat relation storage); the matcher and the index
	// maintenance read it instead of re-consing Fact arguments.
	rows [][]intern.ID
	// bind is the ID binding frame; lookupVal adapts it to EvalTermFn's
	// value-level variable lookup by materializing bound IDs, so interpreted
	// function terms evaluate over values.
	bind      *bindFrame
	lookupVal func(datalog.Var) (value.Value, bool)
	// rowBuf is a scratch ID row reused across intern and index operations
	// (never retained: intern.Relation copies inserted rows).
	rowBuf []intern.ID
	// Rule dedup: an open-addressed table of rule indices plus reusable
	// sort/neg scratch and a chunked int arena for rule bodies, so a
	// duplicate firing allocates nothing and a new rule costs only its share
	// of an arena chunk.
	ruleTab  []int32
	ruleMask uint32
	posSort  []int
	negSort  []int
	negBuf   []int
	bodies   intArena
}

// intArena carves small []int slices out of shared chunks; rule bodies are
// immutable once stored, so packing them eliminates one heap object per rule.
type intArena struct{ buf []int }

const intArenaChunk = 1 << 13

func (a *intArena) store(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	if len(a.buf)+len(src) > cap(a.buf) {
		size := intArenaChunk
		for size < len(src) {
			size *= 2
		}
		a.buf = make([]int, 0, size)
	}
	n := len(a.buf)
	a.buf = a.buf[: n+len(src) : cap(a.buf)]
	s := a.buf[n : n+len(src) : n+len(src)]
	copy(s, src)
	return s
}

// internRow is the fact dedup: probe the predicate's compact relation with
// the argument-ID row. The steady-state cost per intern attempt is one hash
// probe over machine words, with no value traffic at all; even for new atoms
// no datalog.Fact or key string is built (the Program materializes those
// lazily on first Atom/AtomKey use). Atom ids are assigned in first-sight
// order.
func (g *grounder) internRow(pred string, row []intern.ID) (int, error) {
	pa := predArity{pred, len(row)}
	t, ok := g.prog.tables[pa]
	if !ok {
		t = &predTable{rel: intern.NewRelation(len(row))}
		g.prog.tables[pa] = t
	}
	if idx, ok := t.rel.Find(row); ok {
		return t.atomIDs[idx], nil
	}
	if g.prog.numAtoms >= g.budget.MaxAtoms {
		return 0, &BudgetError{What: "atoms", Limit: g.budget.MaxAtoms}
	}
	id := g.prog.numAtoms
	g.prog.numAtoms++
	idx, _ := t.rel.Insert(row)
	t.atomIDs = append(t.atomIDs, id)
	g.prog.byPred[pred] = append(g.prog.byPred[pred], id)
	g.seqOf = append(g.seqOf, -1)
	g.derived = append(g.derived, false)
	g.rows = append(g.rows, t.rel.Row(idx))
	return id, nil
}

func (g *grounder) markDerived(id int, pred string) {
	if g.derived[id] {
		return
	}
	g.derived[id] = true
	g.seqOf[id] = len(g.byPredDerived[pred])
	g.byPredDerived[pred] = append(g.byPredDerived[pred], id)
	for _, m := range g.masksByPred[pred] {
		key, ok := projectRowHash(g.rows[id], m.positions)
		if !ok {
			continue
		}
		g.indexes[m.sig][key] = append(g.indexes[m.sig][key], id)
	}
}

// addRule records a ground rule unless it is already present. It leaves the
// caller's slices untouched (sorting happens in reusable scratch), dedups
// against the open-addressed rule table, and copies the body into the arena
// only when the rule is genuinely new — the common duplicate firing allocates
// nothing.
func (g *grounder) addRule(head int, pos, neg []int) (bool, error) {
	g.posSort = append(g.posSort[:0], pos...)
	g.negSort = append(g.negSort[:0], neg...)
	sort.Ints(g.posSort)
	sort.Ints(g.negSort)
	h := hashRule(head, g.posSort, g.negSort)
	slot := uint32(h) & g.ruleMask
	for {
		ri := g.ruleTab[slot]
		if ri == 0 {
			break
		}
		r := &g.prog.Rules[ri-1]
		if r.Head == head && intsEqual(r.Pos, g.posSort) && intsEqual(r.Neg, g.negSort) {
			return false, nil
		}
		slot = (slot + 1) & g.ruleMask
	}
	if len(g.prog.Rules) >= g.budget.MaxRules {
		return false, &BudgetError{What: "rules", Limit: g.budget.MaxRules}
	}
	idx := len(g.prog.Rules)
	g.prog.Rules = append(g.prog.Rules, Rule{
		Head: head,
		Pos:  g.bodies.store(g.posSort),
		Neg:  g.bodies.store(g.negSort),
	})
	// Same 3/4 load-factor policy as intern.Relation; growth rehashes from the
	// stored (already sorted) rules, so no hash needs to be remembered.
	if uint32(idx+1)*4 > (g.ruleMask+1)*3 {
		g.growRuleTab()
	} else {
		g.ruleTab[slot] = int32(idx + 1)
	}
	return true, nil
}

const ruleTabMin = 16

func (g *grounder) growRuleTab() {
	size := (g.ruleMask + 1) * 2
	g.ruleTab = make([]int32, size)
	g.ruleMask = size - 1
	for i := range g.prog.Rules {
		r := &g.prog.Rules[i]
		slot := uint32(hashRule(r.Head, r.Pos, r.Neg)) & g.ruleMask
		for g.ruleTab[slot] != 0 {
			slot = (slot + 1) & g.ruleMask
		}
		g.ruleTab[slot] = int32(i + 1)
	}
}

// hashRule hashes a sorted ground rule; collisions are resolved by the exact
// comparison in addRule.
func hashRule(head int, pos, neg []int) uint64 {
	h := ruleMix(0x8f3a6c1b57e94d25 ^ uint64(head))
	for _, p := range pos {
		h = ruleMix(h ^ uint64(p))
	}
	h = ruleMix(h ^ uint64(len(pos)))
	for _, n := range neg {
		h = ruleMix(h ^ uint64(n))
	}
	return ruleMix(h ^ uint64(len(neg)))
}

// ruleMix is the SplitMix64 finalizer.
func ruleMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matchMask describes, for one match step, the argument positions whose
// values are computable before matching (constants, evaluable function
// terms, and variables bound by earlier steps). Atoms are indexed by the
// projection on those positions, turning the scan-and-filter join into an
// index probe.
type matchMask struct {
	positions []int
	sig       string // index signature: pred|arity|positions
	// index is the resolved bucket map for sig, filled by registerMasks so
	// probes need a single map lookup.
	index map[uint64][]int
}

// orderedRule pairs a rule's execution plan with per-match-step index masks.
// The rule's atom arguments are compiled to idArg rows (idSteps/idHead/
// idNegs), so matching and firing run entirely over interned IDs.
type orderedRule struct {
	plan     datalog.BodyPlan
	head     datalog.Atom
	masks    []matchMask // indexed like plan.Steps; meaningful for match steps
	posPreds []string    // predicate of each positive literal, indexed by PosIdx
	idSteps  [][]idArg   // indexed like plan.Steps; non-nil for match steps
	idHead   []idArg
	idNegs   [][]idArg
}

// idArg is one compiled pattern argument of the matcher: a variable
// (matched or bound by ID equality), a constant consed once at compile time,
// or an interpreted function term that still evaluates through values.
type idArg struct {
	kind idArgKind
	v    datalog.Var
	id   intern.ID
	term datalog.Term
}

type idArgKind uint8

const (
	idVar idArgKind = iota
	idConst
	idTerm
)

// compileArgs builds the idArg row for an atom's argument terms, consing
// constants up front.
func (g *grounder) compileArgs(args []datalog.Term) []idArg {
	out := make([]idArg, len(args))
	for i, t := range args {
		switch tt := t.(type) {
		case datalog.Var:
			out[i] = idArg{kind: idVar, v: tt}
		case datalog.Const:
			out[i] = idArg{kind: idConst, id: g.in.Intern(tt.V)}
		default:
			out[i] = idArg{kind: idTerm, term: t}
		}
	}
	return out
}

func maskSig(pred string, arity int, positions []int) string {
	var sb strings.Builder
	sb.WriteString(pred)
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(arity))
	sb.WriteByte('|')
	for _, p := range positions {
		sb.WriteString(strconv.Itoa(p))
		sb.WriteByte(',')
	}
	return sb.String()
}

// computeMasks derives the match masks for a planned rule by replaying the
// plan's variable-binding discipline.
func computeMasks(plan datalog.BodyPlan) []matchMask {
	bound := map[datalog.Var]bool{}
	allBound := func(t datalog.Term) bool {
		for v := range datalog.VarsOfTerm(t) {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	masks := make([]matchMask, len(plan.Steps))
	for i, st := range plan.Steps {
		switch st.Kind {
		case datalog.StepMatch:
			var positions []int
			for j, a := range st.Atom.Args {
				if v, isVar := a.(datalog.Var); isVar {
					if bound[v] {
						positions = append(positions, j)
					}
					continue
				}
				// non-variable argument: the planner guarantees evaluability
				positions = append(positions, j)
			}
			if len(positions) > 0 {
				masks[i] = matchMask{
					positions: positions,
					sig:       maskSig(st.Atom.Pred, len(st.Atom.Args), positions),
				}
			}
			for _, a := range st.Atom.Args {
				if v, isVar := a.(datalog.Var); isVar {
					bound[v] = true
				}
			}
		case datalog.StepAssign:
			bound[st.AssignVar] = true
		case datalog.StepTest:
			_ = allBound // tests bind nothing
		}
	}
	return masks
}

// bindFrame is a slice-backed variable binding over interned IDs with O(1)
// undo: rules have few variables, so linear lookup beats a map by a wide
// margin in the instantiation hot path, and the matcher binds and compares
// single machine words instead of boxed values.
type bindFrame struct {
	vars []datalog.Var
	ids  []intern.ID
}

func (b *bindFrame) lookup(v datalog.Var) (intern.ID, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if b.vars[i] == v {
			return b.ids[i], true
		}
	}
	return 0, false
}

func (b *bindFrame) push(v datalog.Var, id intern.ID) {
	b.vars = append(b.vars, v)
	b.ids = append(b.ids, id)
}

func (b *bindFrame) mark() int { return len(b.vars) }

func (b *bindFrame) reset(n int) {
	b.vars = b.vars[:n]
	b.ids = b.ids[:n]
}

// registerMasks records every distinct index an ordered rule will probe, so
// markDerived can maintain them incrementally.
func (g *grounder) registerMasks(or *orderedRule) {
	for i, st := range or.plan.Steps {
		if st.Kind != datalog.StepMatch || len(or.masks[i].positions) == 0 {
			continue
		}
		m := or.masks[i]
		idx, ok := g.indexes[m.sig]
		if !ok {
			idx = map[uint64][]int{}
			g.indexes[m.sig] = idx
			m.index = idx
			g.masksByPred[st.Atom.Pred] = append(g.masksByPred[st.Atom.Pred], m)
		}
		or.masks[i].index = idx
	}
}

// projectRowHash mixes the argument IDs at the mask positions into the
// index key; ok=false when the arity does not cover the mask. Probes
// use the same mix, and every candidate is re-verified by the ID matcher, so
// a hash collision costs one rejected candidate, never a wrong match.
func projectRowHash(row []intern.ID, positions []int) (uint64, bool) {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range positions {
		if p >= len(row) {
			return 0, false
		}
		h = ruleMix(h ^ uint64(row[p]))
	}
	return h, true
}

// probeRowHash is projectRowHash for a match step's compiled pattern under
// the current ID binding.
func (g *grounder) probeRowHash(pat []idArg, positions []int, b *bindFrame) (uint64, error) {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range positions {
		id, err := g.argID(pat[p], b)
		if err != nil {
			return 0, err
		}
		h = ruleMix(h ^ uint64(id))
	}
	return h, nil
}

// argID resolves one compiled pattern argument to its interned ID under the
// binding. Unbound variables and failing function terms report EvalTermFn's
// errors.
func (g *grounder) argID(a idArg, b *bindFrame) (intern.ID, error) {
	switch a.kind {
	case idVar:
		if id, ok := b.lookup(a.v); ok {
			return id, nil
		}
		// Unreachable for planned rules (the planner orders steps so probed
		// variables are bound); fall through to EvalTermFn for its error.
		_, err := datalog.EvalTermFn(a.v, g.lookupVal)
		return 0, err
	case idConst:
		return a.id, nil
	default:
		v, err := datalog.EvalTermFn(a.term, g.lookupVal)
		if err != nil {
			return 0, err
		}
		return g.in.Intern(v), nil
	}
}

// matchRowID matches a compiled pattern against an atom's argument-ID row,
// extending bind; the caller restores the binding mark on failure or after
// recursion. Interned IDs are canonical, so ID equality is value.Equal.
func (g *grounder) matchRowID(pat []idArg, row []intern.ID, bind *bindFrame) (bool, error) {
	for i, a := range pat {
		switch a.kind {
		case idVar:
			if id, ok := bind.lookup(a.v); ok {
				if id != row[i] {
					return false, nil
				}
				continue
			}
			bind.push(a.v, row[i])
		case idConst:
			if a.id != row[i] {
				return false, nil
			}
		default:
			v, err := datalog.EvalTermFn(a.term, g.lookupVal)
			if err != nil {
				return false, err
			}
			if g.in.Intern(v) != row[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// evalRowID instantiates a compiled atom pattern into an argument-ID row
// under the binding, reusing buf.
func (g *grounder) evalRowID(pat []idArg, bind *bindFrame, buf []intern.ID) ([]intern.ID, error) {
	buf = buf[:0]
	for _, a := range pat {
		id, err := g.argID(a, bind)
		if err != nil {
			return nil, err
		}
		buf = append(buf, id)
	}
	return buf, nil
}

// enumerate walks the plan steps recursively, backtracking through bind:
// candidates come from the hash-keyed indexes, patterns match argument-ID rows
// word by word (hash-collision candidates are rejected by matchRowID), and
// bindings hold IDs. rng is nil during pass 0. posIDs accumulates the atom
// ids of matched positive atoms for fire.
func (g *grounder) enumerate(or orderedRule, si int, bind *bindFrame, posIDs *[]int, rng *ranges, deltaIdx int) error {
	if si == len(or.plan.Steps) {
		return g.fire(or, bind, *posIDs)
	}
	st := or.plan.Steps[si]
	switch st.Kind {
	case datalog.StepMatch:
		var cands []int
		mask := or.masks[si]
		pat := or.idSteps[si]
		if len(mask.positions) == 0 {
			cands = g.byPredDerived[st.Atom.Pred]
		} else {
			key, err := g.probeRowHash(pat, mask.positions, bind)
			if err != nil {
				return err
			}
			cands = mask.index[key]
		}
		lo, hi := 0, len(g.byPredDerived[st.Atom.Pred])
		if rng != nil {
			lo, hi = rng.bounds(st.PosIdx, deltaIdx, st.Atom.Pred)
		}
		if lo > 0 {
			// Candidate lists are in derivation order, so the window start can
			// be found by binary search. Skipping the prefix linearly instead
			// makes the delta passes quadratic in the candidate list length —
			// cubic overall on transitive-closure-style workloads.
			cands = cands[sort.Search(len(cands), func(i int) bool { return g.seqOf[cands[i]] >= lo }):]
		}
		for _, id := range cands {
			if g.seqOf[id] >= hi {
				break // candidate lists are in derivation order
			}
			row := g.rows[id]
			if len(row) != len(pat) {
				continue
			}
			mk := bind.mark()
			ok, err := g.matchRowID(pat, row, bind)
			if err != nil {
				return err
			}
			if ok {
				*posIDs = append(*posIDs, id)
				if err := g.enumerate(or, si+1, bind, posIDs, rng, deltaIdx); err != nil {
					return err
				}
				*posIDs = (*posIDs)[:len(*posIDs)-1]
			}
			bind.reset(mk)
		}
		return nil
	case datalog.StepAssign:
		v, err := datalog.EvalTermFn(st.Term, g.lookupVal)
		if err != nil {
			return err
		}
		mk := bind.mark()
		bind.push(st.AssignVar, g.in.Intern(v))
		err = g.enumerate(or, si+1, bind, posIDs, rng, deltaIdx)
		bind.reset(mk)
		return err
	case datalog.StepTest:
		lv, err := datalog.EvalTermFn(st.Cmp.L, g.lookupVal)
		if err != nil {
			return err
		}
		rv, err := datalog.EvalTermFn(st.Cmp.R, g.lookupVal)
		if err != nil {
			return err
		}
		ok, err := datalog.EvalCmp(st.Cmp.Op, lv, rv)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return g.enumerate(or, si+1, bind, posIDs, rng, deltaIdx)
	default:
		panic("ground: unknown step kind")
	}
}

// fire records the ground rule for a complete binding, instantiating head and
// negative atoms as argument-ID rows.
func (g *grounder) fire(or orderedRule, bind *bindFrame, posIDs []int) error {
	row, err := g.evalRowID(or.idHead, bind, g.rowBuf)
	if err != nil {
		return err
	}
	g.rowBuf = row
	hid, err := g.internRow(or.head.Pred, row)
	if err != nil {
		return err
	}
	g.negBuf = g.negBuf[:0]
	for i, na := range or.plan.Negs {
		row, err = g.evalRowID(or.idNegs[i], bind, g.rowBuf)
		if err != nil {
			return err
		}
		g.rowBuf = row
		id, err := g.internRow(na.Pred, row)
		if err != nil {
			return err
		}
		g.negBuf = append(g.negBuf, id)
	}
	if _, err := g.addRule(hid, posIDs, g.negBuf); err != nil {
		return err
	}
	g.markDerived(hid, or.head.Pred)
	return nil
}

// Ground instantiates the program under the given budget.
func Ground(p *datalog.Program, budget Budget) (*Program, error) {
	g := &grounder{
		prog: &Program{
			tables: map[predArity]*predTable{},
			byPred: map[string][]int{},
		},
		budget:        budget.withDefaults(),
		in:            intern.Global(),
		byPredDerived: map[string][]int{},
		indexes:       map[string]map[uint64][]int{},
		masksByPred:   map[string][]matchMask{},
		bind:          &bindFrame{},
		ruleTab:       make([]int32, ruleTabMin),
		ruleMask:      ruleTabMin - 1,
	}
	g.lookupVal = func(v datalog.Var) (value.Value, bool) {
		id, ok := g.bind.lookup(v)
		if !ok {
			return nil, false
		}
		return g.in.Lookup(id), true
	}

	var ordered []orderedRule
	for _, r := range p.Rules {
		plan, err := datalog.PlanRule(r)
		if err != nil {
			return nil, fmt.Errorf("ground: %w", err)
		}
		or := orderedRule{plan: plan, head: r.Head, masks: computeMasks(plan), posPreds: make([]string, plan.NumPos)}
		for _, st := range plan.Steps {
			if st.Kind == datalog.StepMatch {
				or.posPreds[st.PosIdx] = st.Atom.Pred
			}
		}
		or.idHead = g.compileArgs(r.Head.Args)
		or.idSteps = make([][]idArg, len(plan.Steps))
		for i, st := range plan.Steps {
			if st.Kind == datalog.StepMatch {
				or.idSteps[i] = g.compileArgs(st.Atom.Args)
			}
		}
		or.idNegs = make([][]idArg, len(plan.Negs))
		for i, na := range plan.Negs {
			or.idNegs[i] = g.compileArgs(na.Args)
		}
		g.registerMasks(&or)
		ordered = append(ordered, or)
	}

	var posIDs []int
	run := func(or orderedRule, rng *ranges, deltaIdx int) error {
		return g.enumerate(or, 0, g.bind, &posIDs, rng, deltaIdx)
	}

	// Pass 0: rules with no positive atoms (facts included) fire once.
	for _, or := range ordered {
		if or.plan.NumPos > 0 {
			continue
		}
		if err := g.budget.stop(); err != nil {
			return nil, err
		}
		if err := run(or, nil, -1); err != nil {
			return nil, err
		}
	}

	// Delta-driven passes: a rule instance is enumerated when at least one of
	// its positive atoms matches an atom derived in the previous pass.
	var passes, deltaHits, deltaSkips int
	prevLen := map[string]int{}
	for {
		curLen := map[string]int{}
		for pred, ids := range g.byPredDerived {
			curLen[pred] = len(ids)
		}
		anyDelta := false
		for pred, cur := range curLen {
			if cur > prevLen[pred] {
				anyDelta = true
				break
			}
		}
		if !anyDelta {
			break
		}
		passes++
		for _, or := range ordered {
			if or.plan.NumPos == 0 {
				continue
			}
			if err := g.budget.stop(); err != nil {
				return nil, err
			}
			for d := 0; d < or.plan.NumPos; d++ {
				// Every complete match must use a last-pass atom at the delta
				// literal; an empty delta window cannot produce one, and
				// enumerating the other literals anyway is what turned the
				// linear-rule passes quadratic.
				if pred := or.posPreds[d]; curLen[pred] == prevLen[pred] {
					deltaSkips++
					continue
				}
				deltaHits++
				if err := run(or, &ranges{prev: prevLen, cur: curLen}, d); err != nil {
					return nil, err
				}
			}
		}
		prevLen = curLen
	}
	if c := obsv.Default(); c != nil {
		c.Collect(obsv.GroundStats{
			Atoms:      g.prog.NumAtoms(),
			Rules:      len(g.prog.Rules),
			Passes:     passes,
			DeltaHits:  deltaHits,
			DeltaSkips: deltaSkips,
		})
	}
	g.prog.rows = g.rows
	return g.prog, nil
}

// ranges restricts, per predicate, which derivation-sequence window each
// positive literal may match during a delta-driven pass: the literal at
// deltaIdx matches only last-pass discoveries, earlier literals only older
// atoms, later literals anything seen so far (the standard semi-naive
// decomposition avoiding duplicate enumeration).
type ranges struct {
	prev, cur map[string]int
}

func (r *ranges) bounds(posIdx, deltaIdx int, pred string) (lo, hi int) {
	switch {
	case posIdx < deltaIdx:
		return 0, r.prev[pred]
	case posIdx == deltaIdx:
		return r.prev[pred], r.cur[pred]
	default:
		return 0, r.cur[pred]
	}
}
