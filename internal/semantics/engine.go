package semantics

import (
	"errors"
	"fmt"
	"math/bits"

	"algrec/internal/datalog/ground"
	"algrec/internal/obsv"
)

// Engine evaluates a ground program under the different semantics. It
// precomputes occurrence indexes so each least-fixpoint pass runs in time
// linear in the size of the ground program, and keeps reusable scratch
// buffers so repeated passes (the alternating gamma iterations of
// WellFounded/Valid, the per-stratum passes of Stratified, the per-candidate
// reduct checks of StableModels) are allocation-free after warm-up.
//
// An Engine's methods are not safe for concurrent use by multiple
// goroutines.
type Engine struct {
	g *ground.Program
	// The positive-occurrence index in CSR layout: the rules where atom a
	// occurs positively are posOccFlat[posOccStart[a]:posOccStart[a+1]]. Flat
	// int32 arrays keep the propagation loop's working set dense — on ground
	// programs in the millions of rules the fixpoint is memory-bound, and the
	// pointer-chasing [][]int layout costs ~2x.
	posOccStart []int32
	posOccFlat  []int32
	heads       []int32 // per-rule head atom, so propagation never loads Rule structs
	missingInit []int32 // per-rule positive body size, memcpy'd into scratch each pass
	negRules    []int32 // indices of rules with negative body atoms
	zeroPos     []int32 // indices of rules with empty positive body
	hasNeg      bool
	words       int     // bitset length in words, covering all atom ids
	scr         scratch // the reusable buffers
	// obs receives one event per completed semantics computation; nil means
	// observability is disabled. Events are emitted only from entry-point
	// epilogues — never from the worklist loops — so a disabled collector
	// costs one branch per call and an enabled one costs one event per call.
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
	n := g.NumAtoms()
	e := &Engine{
		g:           g,
		posOccStart: make([]int32, n+1),
		heads:       make([]int32, len(g.Rules)),
		missingInit: make([]int32, len(g.Rules)),
		words:       g.Words64(),
		obs:         obsv.Default(),
	}
	for ri := range g.Rules {
		r := &g.Rules[ri]
		e.heads[ri] = int32(r.Head)
		e.missingInit[ri] = int32(len(r.Pos))
		for _, a := range r.Pos {
			e.posOccStart[a+1]++
		}
		if len(r.Pos) == 0 {
			e.zeroPos = append(e.zeroPos, int32(ri))
		}
		if len(r.Neg) > 0 {
			e.negRules = append(e.negRules, int32(ri))
			e.hasNeg = true
		}
	}
	for a := 0; a < n; a++ {
		e.posOccStart[a+1] += e.posOccStart[a]
	}
	e.posOccFlat = make([]int32, e.posOccStart[n])
	fill := make([]int32, n)
	copy(fill, e.posOccStart[:n])
	for ri := range g.Rules {
		for _, a := range g.Rules[ri].Pos {
			e.posOccFlat[fill[a]] = int32(ri)
			fill[a]++
		}
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

// emitFixpoint reports one completed semantics computation, charging the
// scratch's buffer-pool activity since the previous event.
func (e *Engine) emitFixpoint(sem string, passes, derived int, deltas []int) {
	r, a := e.scr.takeCounters()
	e.obs.Fixpoint(obsv.FixpointStats{
		Semantics:        sem,
		Passes:           passes,
		Atoms:            e.g.NumAtoms(),
		Derived:          derived,
		Deltas:           deltas,
		ScratchReused:    r,
		ScratchAllocated: a,
	})
}

// scratch holds an engine's reusable buffers. The zero
// value is ready to use: buffers are allocated on first use and recycled
// through a small free list afterwards, so a warm scratch makes the fixpoint
// kernels allocation-free.
type scratch struct {
	missing []int32  // per-rule count of positive body atoms not yet derived
	queue   []int32  // lfp work queue
	pool    []Bitset // recycled truth vectors (all e.words long)
	// reused and allocated count grab calls served from the pool vs freshly
	// allocated; takeCounters drains them into an observability event. grab
	// runs once per fixpoint pass, far off the hot path, so the counters are
	// maintained unconditionally.
	reused    int
	allocated int
}

// takeCounters returns and resets the pool-activity counters.
func (s *scratch) takeCounters() (reused, allocated int) {
	reused, allocated = s.reused, s.allocated
	s.reused, s.allocated = 0, 0
	return reused, allocated
}

// grab returns a truth vector with the given word count, recycling from the
// pool when possible. The contents are unspecified; callers clear or
// overwrite as needed.
func (s *scratch) grab(words int) Bitset {
	if n := len(s.pool); n > 0 && len(s.pool[n-1]) == words {
		b := s.pool[n-1]
		s.pool = s.pool[:n-1]
		s.reused++
		return b
	}
	s.allocated++
	return make(Bitset, words)
}

// release returns a truth vector to the pool.
func (s *scratch) release(b Bitset) { s.pool = append(s.pool, b) }

// lfp computes the least fixpoint of the positive parts of the enabled rules
// into out: an atom is derived when some enabled rule has all positive body
// atoms derived; seed atoms are derived unconditionally. A rule is enabled
// iff none of its negative atoms is set in block (when block != nil), every
// negative atom is set in allow (when allow != nil), and extra(ri) holds
// (when extra != nil). out must be distinct from block, allow and seed.
func (e *Engine) lfp(s *scratch, block, allow Bitset, extra func(int) bool, seed, out Bitset) {
	out.ClearAll()
	rules := e.g.Rules
	if cap(s.missing) < len(rules) {
		s.missing = make([]int32, len(rules))
	}
	missing := s.missing[:len(rules)]
	copy(missing, e.missingInit)
	if extra != nil {
		for ri := range rules {
			if !extra(ri) {
				missing[ri] = -1
			}
		}
	}
	if block != nil || allow != nil {
		// Only rules with negative atoms can be disabled by block/allow;
		// everything else keeps its memcpy'd positive-body count.
		for _, ri := range e.negRules {
			if missing[ri] < 0 {
				continue
			}
			for _, a := range rules[ri].Neg {
				if (block != nil && block.Get(a)) || (allow != nil && !allow.Get(a)) {
					missing[ri] = -1
					break
				}
			}
		}
	}
	queue := s.queue[:0]
	for _, ri := range e.zeroPos {
		if missing[ri] == 0 {
			h := e.heads[ri]
			if !out.Get(int(h)) {
				out.Set(int(h))
				queue = append(queue, h)
			}
		}
	}
	if seed != nil {
		for wi, w := range seed {
			for w != 0 {
				a := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if !out.Get(a) {
					out.Set(a)
					queue = append(queue, int32(a))
				}
			}
		}
	}
	start, flat, heads := e.posOccStart, e.posOccFlat, e.heads
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range flat[start[a]:start[a+1]] {
			if missing[ri] <= 0 {
				continue
			}
			missing[ri]--
			if missing[ri] == 0 {
				h := heads[ri]
				if !out.Get(int(h)) {
					out.Set(int(h))
					queue = append(queue, h)
				}
			}
		}
	}
	s.queue = queue[:0] // keep the grown capacity for the next pass
}

// gamma computes Γ(J) into out: the least fixpoint of the program where a
// negative literal ¬a holds iff a ∉ J. Γ is the antimonotone operator whose
// alternating iteration yields the well-founded model, and which the paper's
// Section 2.2 uses to describe the valid-model computation ("only facts not
// in T are allowed to be used negatively").
func (e *Engine) gamma(s *scratch, j, out Bitset) {
	e.lfp(s, j, nil, nil, nil, out)
}

// ErrNotPositive is returned by Minimal and MinimalNaive for programs with
// negative literals.
var ErrNotPositive = errors.New("semantics: program is not positive (has negative literals)")

// Minimal computes the minimal model of a positive ground program by the
// semi-naive least fixpoint.
func (e *Engine) Minimal() (*Interp, error) {
	if e.hasNeg {
		return nil, ErrNotPositive
	}
	s := &e.scr
	derived := s.grab(e.words)
	e.lfp(s, nil, nil, nil, nil, derived)
	if e.obs != nil {
		e.emitFixpoint("minimal", 1, derived.Popcount(), nil)
	}
	in := e.twoValued(derived)
	s.release(derived)
	return in, nil
}

// MinimalNaive computes the minimal model of a positive ground program by
// naive iteration (full re-application of all rules each round). It exists
// as the baseline for the semi-naive benchmark (experiment P1).
func (e *Engine) MinimalNaive() (*Interp, error) {
	if e.hasNeg {
		return nil, ErrNotPositive
	}
	s := &e.scr
	derived := s.grab(e.words)
	derived.ClearAll()
	rounds := 0
	for {
		changed := false
		for _, r := range e.g.Rules {
			ok := true
			for _, a := range r.Pos {
				if !derived.Get(a) {
					ok = false
					break
				}
			}
			if ok && !derived.Get(r.Head) {
				derived.Set(r.Head)
				changed = true
			}
		}
		rounds++
		if !changed {
			break
		}
	}
	if e.obs != nil {
		e.emitFixpoint("minimal-naive", rounds, derived.Popcount(), nil)
	}
	in := e.twoValued(derived)
	s.release(derived)
	return in, nil
}

func (e *Engine) twoValued(derived Bitset) *Interp {
	in := NewInterp(e.g, False)
	derived.ForEach(func(a int) { in.Set(a, True) })
	return in
}

// Inflationary computes the inflationary fixpoint semantics: starting from
// the database facts (bodyless rules — the given structure, step 0), each
// step fires every rule whose positive body is already derived and whose
// negative body atoms are *not derived so far* (at the start of the step),
// accumulating heads. It returns the model and the number of steps to
// convergence after step 0 (used by the Proposition 5.2 step-index bound,
// whose construction likewise places facts at index 0).
//
// Rules are kept on a worklist rather than rescanned every step: because the
// derived set only grows, a rule whose head is already derived can never add
// anything, and a rule with a derived negative atom can never fire again —
// both drop out permanently as soon as they are observed.
func (e *Engine) Inflationary() (*Interp, int) {
	cur := e.scr.grab(e.words)
	cur.ClearAll()
	for _, r := range e.g.Rules {
		if len(r.Pos) == 0 && len(r.Neg) == 0 {
			cur.Set(r.Head)
		}
	}
	work := make([]int, 0, len(e.g.Rules))
	for ri := range e.g.Rules {
		work = append(work, ri)
	}
	var added []int
	var deltas []int // per-step head counts, collected only when observed
	steps := 0
	for {
		added = added[:0]
		live := work[:0]
		for _, ri := range work {
			r := &e.g.Rules[ri]
			if cur.Get(r.Head) {
				continue // already derived: the rule can never add anything
			}
			blocked := false
			for _, a := range r.Neg {
				if cur.Get(a) {
					blocked = true
					break
				}
			}
			if blocked {
				continue // cur only grows: the rule can never fire again
			}
			ok := true
			for _, a := range r.Pos {
				if !cur.Get(a) {
					ok = false
					break
				}
			}
			if ok {
				added = append(added, r.Head)
				continue // its head becomes derived: the rule is spent
			}
			live = append(live, ri) // still waiting on positive atoms
		}
		work = live
		if len(added) == 0 {
			break
		}
		if e.obs != nil {
			// added can repeat a head (two spent rules, same head, one
			// step); the reported delta is the distinct atoms gained.
			n := 0
			for _, a := range added {
				if !cur.Get(a) {
					n++
				}
				cur.Set(a)
			}
			deltas = append(deltas, n)
		} else {
			for _, a := range added {
				cur.Set(a)
			}
		}
		steps++
	}
	if e.obs != nil {
		e.emitFixpoint("inflationary", steps, cur.Popcount(), deltas)
	}
	in := e.twoValued(cur)
	e.scr.release(cur)
	return in, steps
}

// WellFounded computes the well-founded model by the alternating fixpoint:
// T_{k+1} = Γ(Γ(T_k)) ascending from ∅, with U = Γ(T) the final upper bound.
// True atoms are T, false atoms are those outside U, the rest are undefined.
func (e *Engine) WellFounded() *Interp {
	s := &e.scr
	t := s.grab(e.words)
	u := s.grab(e.words)
	t2 := s.grab(e.words)
	t.ClearAll()
	iters := 0
	for {
		e.gamma(s, t, u)
		e.gamma(s, u, t2)
		iters++
		if t.Equal(t2) {
			break
		}
		t.CopyFrom(t2)
	}
	if e.obs != nil {
		e.emitFixpoint("wellfounded", iters, t2.Popcount(), nil)
	}
	in := NewInterp(e.g, Undef)
	t.ForEach(func(a int) { in.Set(a, True) })
	t2.ClearAll()
	t2.OrNot(u) // atoms outside the upper bound are certainly false
	t2.Trim(e.g.NumAtoms())
	t2.ForEach(func(a int) { in.Set(a, False) })
	s.release(t2)
	s.release(u)
	s.release(t)
	return in
}

// Valid computes the valid model by the iterative procedure of the paper's
// Section 2.2, kept deliberately close to the prose: starting with all facts
// undefined, repeatedly (i) find every fact derivable in a computation that
// uses negatively only facts not currently true — facts not so derivable are
// certainly false; (ii) derive new true facts using negatively only the
// certainly-false facts; until no more true facts appear.
func (e *Engine) Valid() *Interp {
	s := &e.scr
	t := s.grab(e.words)
	f := s.grab(e.words)
	poss := s.grab(e.words)
	t2 := s.grab(e.words)
	t.ClearAll()
	f.ClearAll()
	iters := 0
	for {
		// (i) possible facts: derivations may use ¬a only when a ∉ T.
		e.gamma(s, t, poss)
		f.OrNot(poss)
		f.Trim(e.g.NumAtoms())
		// (ii) new true facts: derivations start from T and may use ¬a only
		// when a is certainly false.
		e.lfp(s, nil, f, nil, t, t2)
		iters++
		if t.Equal(t2) {
			break
		}
		t.CopyFrom(t2)
	}
	if e.obs != nil {
		e.emitFixpoint("valid", iters, t.Popcount(), nil)
	}
	in := NewInterp(e.g, Undef)
	t.ForEach(func(a int) { in.Set(a, True) })
	f.AndNot(t) // true wins where the iteration marked both
	f.ForEach(func(a int) { in.Set(a, False) })
	s.release(t2)
	s.release(poss)
	s.release(f)
	s.release(t)
	return in
}

// Stratified evaluates the program stratum by stratum: the minimal model of
// each stratum is computed with negative literals resolved against the
// completed lower strata. stratumOf maps each predicate to its stratum; it
// comes from datalog.Stratify on the non-ground program.
func (e *Engine) Stratified(stratumOf map[string]int) (*Interp, error) {
	max := 0
	for _, s := range stratumOf {
		if s > max {
			max = s
		}
	}
	headStratum := make([]int, len(e.g.Rules))
	for ri, r := range e.g.Rules {
		s, ok := stratumOf[e.g.Atom(r.Head).Pred]
		if !ok {
			return nil, fmt.Errorf("semantics: predicate %s has no stratum", e.g.Atom(r.Head).Pred)
		}
		headStratum[ri] = s
		for _, a := range r.Neg {
			ns, ok := stratumOf[e.g.Atom(a).Pred]
			if !ok {
				return nil, fmt.Errorf("semantics: predicate %s has no stratum", e.g.Atom(a).Pred)
			}
			if ns >= s {
				return nil, fmt.Errorf("semantics: not a stratification: %s (stratum %d) negated in a rule for stratum %d", e.g.Atom(a).Pred, ns, s)
			}
		}
	}
	s := &e.scr
	derived := s.grab(e.words)
	next := s.grab(e.words)
	derived.ClearAll()
	for st := 0; st <= max; st++ {
		st := st
		e.lfp(s, derived, nil, func(ri int) bool { return headStratum[ri] <= st }, derived, next)
		derived, next = next, derived
	}
	if e.obs != nil {
		e.emitFixpoint("stratified", max+1, derived.Popcount(), nil)
	}
	in := e.twoValued(derived)
	s.release(next)
	s.release(derived)
	return in, nil
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
	base := NewBitset(e.g.NumAtoms())
	for a := 0; a < e.g.NumAtoms(); a++ {
		if wf.Truth(a) == True {
			base.Set(a)
		}
	}
	var models []*Interp
	for lo := uint64(0); lo < total; lo += stableInterruptWindow {
		if err := e.stop(); err != nil {
			return nil, err
		}
		models = append(models, e.stableRange(base, undef, lo, min(lo+stableInterruptWindow, total))...)
	}
	if e.obs != nil {
		r, a := e.scr.takeCounters()
		e.obs.StableSearch(obsv.StableSearchStats{
			Undef: len(undef), Candidates: total, Models: len(models),
			ScratchReused: r, ScratchAllocated: a,
		})
	}
	return models, nil
}

// stableRange checks the Gelfond–Lifschitz condition for every candidate
// mask in [lo, hi): the least model of the reduct P^M must equal M. Bit i of
// the mask decides undef[i].
func (e *Engine) stableRange(base Bitset, undef []int, lo, hi uint64) []*Interp {
	s := &e.scr
	cand := s.grab(e.words)
	red := s.grab(e.words)
	var models []*Interp
	for mask := lo; mask < hi; mask++ {
		cand.CopyFrom(base)
		for i, a := range undef {
			if mask&(1<<uint(i)) != 0 {
				cand.Set(a)
			}
		}
		e.lfp(s, cand, nil, nil, nil, red)
		if red.Equal(cand) {
			models = append(models, e.twoValued(cand))
		}
	}
	s.release(red)
	s.release(cand)
	return models
}
