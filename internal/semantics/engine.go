package semantics

import (
	"errors"
	"fmt"
	"slices"

	"algrec/internal/datalog/ground"
	"algrec/internal/obsv"
)

// Engine evaluates a ground program under the different semantics. Every
// semantics is built from one operation, lfp: the least set of atoms closed
// under a subset of the rules, read positively. lfp propagates each derived
// atom through the rules where it occurs positively, so one pass costs time
// linear in the size of the ground program.
//
// An Engine's methods are not safe for concurrent use by multiple
// goroutines.
type Engine struct {
	g      *ground.Program
	posOcc [][]int // per atom, the rules where it occurs positively
	hasNeg bool
	// obs receives one event per completed semantics computation; nil means
	// observability is disabled. Events are emitted only from entry-point
	// epilogues, never from inside a fixpoint.
	obs obsv.Collector
	// intr, when non-nil, is polled between candidate windows of the
	// stable-model search (the only engine entry point whose work is not
	// bounded by the ground program's size): once closed, the search stops
	// with an error wrapping ErrCanceled. See SetInterrupt.
	intr <-chan struct{}
}

// NewEngine builds an engine for the ground program. The engine captures
// the process-default collector (obsv.Default) at construction; use
// SetCollector to override it per engine.
func NewEngine(g *ground.Program) *Engine {
	e := &Engine{g: g, posOcc: make([][]int, g.NumAtoms()), obs: obsv.Default()}
	for ri, r := range g.Rules {
		for _, a := range r.Pos {
			e.posOcc[a] = append(e.posOcc[a], ri)
		}
		e.hasNeg = e.hasNeg || len(r.Neg) > 0
	}
	return e
}

// Ground returns the engine's ground program.
func (e *Engine) Ground() *ground.Program { return e.g }

// SetCollector attaches an observability collector to the engine, replacing
// the one captured from obsv.Default at construction. A nil collector
// disables observability. Not safe to call concurrently with evaluation.
func (e *Engine) SetCollector(c obsv.Collector) { e.obs = c }

// SetInterrupt attaches a cancellation channel to the engine: once ch is
// closed, an in-progress StableModels search returns an error wrapping
// ErrCanceled at the next candidate-window boundary. The fixpoint entry
// points (Minimal, Inflationary, WellFounded, Valid, Stratified) are bounded
// by the ground program's size and are not interruptible; interrupt their
// callers at grounding time via ground.Budget.Interrupt instead. Not safe to
// call concurrently with evaluation.
func (e *Engine) SetInterrupt(ch <-chan struct{}) { e.intr = ch }

// ErrCanceled is wrapped by errors reporting that a stable-model search
// stopped because the channel given to SetInterrupt fired.
var ErrCanceled = errors.New("semantics: stable-model search canceled")

// stop returns a non-nil error wrapping ErrCanceled once the engine's
// interrupt channel has fired, and nil otherwise.
func (e *Engine) stop() error {
	if e.intr == nil {
		return nil
	}
	select {
	case <-e.intr:
		return fmt.Errorf("%w (interrupt fired between candidate windows)", ErrCanceled)
	default:
		return nil
	}
}

// emitFixpoint reports one completed semantics computation.
func (e *Engine) emitFixpoint(sem string, passes int, derived []bool, deltas []int) {
	if e.obs != nil {
		e.obs.Collect(obsv.FixpointStats{
			Semantics: sem, Passes: passes, Atoms: e.g.NumAtoms(),
			Derived: count(derived), Deltas: deltas,
		})
	}
}

// count returns the number of true entries of a truth vector.
func count(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

// anyIn reports whether some atom of atoms is true in v.
func anyIn(atoms []int, v []bool) bool {
	return slices.ContainsFunc(atoms, func(a int) bool { return v[a] })
}

// allIn reports whether every atom of atoms is true in v.
func allIn(atoms []int, v []bool) bool {
	return !slices.ContainsFunc(atoms, func(a int) bool { return !v[a] })
}

// lfp returns the least set of atoms that contains seed (when non-nil) and
// is closed under the rules enabled admits, read positively: an atom is
// derived when an enabled rule has all its positive body atoms derived.
func (e *Engine) lfp(enabled func(r ground.Rule) bool, seed []bool) []bool {
	out := make([]bool, e.g.NumAtoms())
	missing := make([]int, len(e.g.Rules)) // positive body atoms not yet derived; -1 disabled
	var queue []int
	derive := func(a int) {
		if !out[a] {
			out[a] = true
			queue = append(queue, a)
		}
	}
	for ri, r := range e.g.Rules {
		missing[ri] = len(r.Pos)
		if !enabled(r) {
			missing[ri] = -1
		} else if len(r.Pos) == 0 {
			derive(r.Head)
		}
	}
	for a, ok := range seed {
		if ok {
			derive(a)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range e.posOcc[a] {
			if missing[ri] > 0 {
				missing[ri]--
				if missing[ri] == 0 {
					derive(e.g.Rules[ri].Head)
				}
			}
		}
	}
	return out
}

// gamma computes Γ(J): the least fixpoint of the program where a negative
// literal ¬a holds iff a ∉ J. Γ is the antimonotone operator whose
// alternating iteration yields the well-founded model, and which the paper's
// Section 2.2 uses to describe the valid-model computation ("only facts not
// in T are allowed to be used negatively").
func (e *Engine) gamma(j []bool) []bool {
	return e.lfp(func(r ground.Rule) bool { return !anyIn(r.Neg, j) }, nil)
}

// ErrNotPositive is returned by Minimal for programs with negative literals.
var ErrNotPositive = errors.New("semantics: program is not positive (has negative literals)")

// Minimal computes the minimal model of a positive ground program: one
// least-fixpoint pass.
func (e *Engine) Minimal() (*Interp, error) {
	if e.hasNeg {
		return nil, ErrNotPositive
	}
	derived := e.lfp(func(ground.Rule) bool { return true }, nil)
	e.emitFixpoint("minimal", 1, derived, nil)
	return e.twoValued(derived), nil
}

func (e *Engine) twoValued(derived []bool) *Interp {
	in := NewInterp(e.g, False)
	for a, ok := range derived {
		if ok {
			in.Set(a, True)
		}
	}
	return in
}

// Inflationary computes the inflationary fixpoint semantics: starting from
// the database facts (bodyless rules — the given structure, step 0), each
// step fires every rule whose positive body is already derived and whose
// negative body atoms are *not derived so far* (at the start of the step),
// accumulating heads. It returns the model and the number of steps to
// convergence after step 0 (used by the Proposition 5.2 step-index bound,
// whose construction likewise places facts at index 0).
func (e *Engine) Inflationary() (*Interp, int) {
	cur := make([]bool, e.g.NumAtoms())
	for _, r := range e.g.Rules {
		if len(r.Pos) == 0 && len(r.Neg) == 0 {
			cur[r.Head] = true
		}
	}
	var deltas []int // distinct atoms gained per step
	for {
		var added []int
		for _, r := range e.g.Rules {
			if !cur[r.Head] && allIn(r.Pos, cur) && !anyIn(r.Neg, cur) {
				added = append(added, r.Head)
			}
		}
		if len(added) == 0 {
			break
		}
		n := 0
		for _, a := range added {
			if !cur[a] {
				cur[a] = true
				n++
			}
		}
		deltas = append(deltas, n)
	}
	e.emitFixpoint("inflationary", len(deltas), cur, deltas)
	return e.twoValued(cur), len(deltas)
}

// WellFounded computes the well-founded model by the alternating fixpoint:
// T_{k+1} = Γ(Γ(T_k)) ascending from ∅, with U = Γ(T) the final upper bound.
// True atoms are T, false atoms are those outside U, the rest are undefined.
func (e *Engine) WellFounded() *Interp {
	t := make([]bool, e.g.NumAtoms())
	var u []bool
	iters := 0
	for {
		u = e.gamma(t)
		next := e.gamma(u)
		iters++
		if slices.Equal(t, next) {
			break
		}
		t = next
	}
	e.emitFixpoint("wellfounded", iters, t, nil)
	in := NewInterp(e.g, Undef)
	for a := range t {
		switch {
		case t[a]:
			in.Set(a, True)
		case !u[a]:
			in.Set(a, False) // outside the upper bound: certainly false
		}
	}
	return in
}

// Valid computes the valid model by the iterative procedure of the paper's
// Section 2.2, kept deliberately close to the prose: starting with all facts
// undefined, repeatedly (i) find every fact derivable in a computation that
// uses negatively only facts not currently true — facts not so derivable are
// certainly false; (ii) derive new true facts using negatively only the
// certainly-false facts; until no more true facts appear.
func (e *Engine) Valid() *Interp {
	t := make([]bool, e.g.NumAtoms())
	f := make([]bool, e.g.NumAtoms())
	iters := 0
	for {
		// (i) possible facts: derivations may use ¬a only when a ∉ T.
		for a, possible := range e.gamma(t) {
			f[a] = f[a] || !possible
		}
		// (ii) new true facts: derivations start from T and may use ¬a only
		// when a is certainly false.
		next := e.lfp(func(r ground.Rule) bool { return allIn(r.Neg, f) }, t)
		iters++
		if slices.Equal(t, next) {
			break
		}
		t = next
	}
	e.emitFixpoint("valid", iters, t, nil)
	in := NewInterp(e.g, Undef)
	for a := range t {
		switch {
		case t[a]:
			in.Set(a, True) // true wins where the iteration marked both
		case f[a]:
			in.Set(a, False)
		}
	}
	return in
}

// Stratified evaluates the program stratum by stratum: the minimal model of
// each stratum is computed with negative literals resolved against the
// completed lower strata. stratumOf maps each predicate to its stratum; it
// comes from datalog.Stratify on the non-ground program.
func (e *Engine) Stratified(stratumOf map[string]int) (*Interp, error) {
	top := 0
	for _, s := range stratumOf {
		top = max(top, s)
	}
	stratum := func(a int) (int, error) {
		s, ok := stratumOf[e.g.Atom(a).Pred]
		if !ok {
			return 0, fmt.Errorf("semantics: predicate %s has no stratum", e.g.Atom(a).Pred)
		}
		return s, nil
	}
	headStratum := make(map[int]int, len(e.g.Rules)) // per head atom
	for _, r := range e.g.Rules {
		s, err := stratum(r.Head)
		if err != nil {
			return nil, err
		}
		headStratum[r.Head] = s
		for _, a := range r.Neg {
			ns, err := stratum(a)
			if err != nil {
				return nil, err
			}
			if ns >= s {
				return nil, fmt.Errorf("semantics: not a stratification: %s (stratum %d) negated in a rule for stratum %d", e.g.Atom(a).Pred, ns, s)
			}
		}
	}
	derived := make([]bool, e.g.NumAtoms())
	for st := 0; st <= top; st++ {
		lower := derived // the model of the strata below st
		derived = e.lfp(func(r ground.Rule) bool {
			return headStratum[r.Head] <= st && !anyIn(r.Neg, lower)
		}, lower)
	}
	e.emitFixpoint("stratified", top+1, derived, nil)
	return e.twoValued(derived), nil
}

// ErrTooManyUndef is returned by StableModels when the residual left by the
// well-founded model is larger than the caller's bound.
var ErrTooManyUndef = errors.New("semantics: too many undefined atoms for stable-model search")

// stableInterruptWindow is the number of candidate masks a stable search
// examines between polls of the engine's interrupt channel.
const stableInterruptWindow = 1 << 12

// StableModels enumerates all stable models (Gelfond–Lifschitz) of the
// ground program. It first computes the well-founded model — which every
// stable model extends — then searches assignments of the undefined atoms,
// returning one two-valued Interp per stable model, in a deterministic order
// (ascending candidate mask). If more than maxUndef atoms are undefined it
// returns ErrTooManyUndef rather than attempting an exponential search. The
// mask space is walked in windows, the interrupt polled between them, so
// cancellation is prompt even on 2^62-sized spaces.
func (e *Engine) StableModels(maxUndef int) ([]*Interp, error) {
	wf := e.WellFounded()
	undef := wf.UndefAtoms()
	if len(undef) > maxUndef {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyUndef, len(undef), maxUndef)
	}
	if len(undef) > 62 {
		return nil, fmt.Errorf("%w: %d undefined atoms overflow the candidate-mask space", ErrTooManyUndef, len(undef))
	}
	total := uint64(1) << uint(len(undef))
	var models []*Interp
	for mask := uint64(0); mask < total; mask++ {
		if mask%stableInterruptWindow == 0 {
			if err := e.stop(); err != nil {
				return nil, err
			}
		}
		// The candidate: the well-founded true atoms, plus undef[i] where
		// bit i of the mask is set. It is stable iff the least model of its
		// reduct (the rules none of whose negative atoms it holds) is itself.
		cand := make([]bool, e.g.NumAtoms())
		for a := range cand {
			cand[a] = wf.Truth(a) == True
		}
		for i, a := range undef {
			cand[a] = mask&(1<<uint(i)) != 0
		}
		if slices.Equal(e.lfp(func(r ground.Rule) bool { return !anyIn(r.Neg, cand) }, nil), cand) {
			models = append(models, e.twoValued(cand))
		}
	}
	if e.obs != nil {
		e.obs.Collect(obsv.StableSearchStats{Undef: len(undef), Candidates: total, Models: len(models)})
	}
	return models, nil
}
