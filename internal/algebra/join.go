package algebra

import (
	"fmt"
	"slices"
	"sort"

	"algrec/internal/obsv"
	"algrec/internal/value"
)

// This file evaluates equi-joins. The algebra has no join operator — the
// paper builds joins from ×, σ and MAP — so every join in a translated
// program has the shape
//
//	σ_test(L × R)  with test containing conjuncts  p.1.⟨path⟩ = p.2.⟨path⟩.
//
// Materializing the full product makes that quadratic, so the join planner
// (planner.go) joins on the key paths instead and evalJoin re-checks the
// complete test on each candidate pair; only the reference (NewReference)
// builds the product. The planner finds the key paths of a test
// (joinPlan.analyze); applyPath follows one into an element.
//
// Results are identical to the reference's on error-free evaluations: the
// join only ever prunes product pairs via pushed conjuncts and join keys,
// both implied by the complete test, which is re-checked on every
// reconstructed element. Budget boundaries differ by design — the reference
// rejects a huge intermediate product even when the output is small; the
// join bounds only its output — so a budget error on one may be a success on
// the other.

// KeyPath is a sequence of 1-based tuple projections applied to one side of
// a product element.
type KeyPath []int

// applyPath projects a value along the path; ok=false on a kind or range
// mismatch.
func applyPath(val value.Value, path KeyPath) (value.Value, bool) {
	for _, idx := range path {
		t, isTuple := val.(value.Tuple)
		if !isTuple || idx < 1 || idx > t.Len() {
			return nil, false
		}
		val = t.At(idx - 1)
	}
	return val, true
}

// leafEval evaluates a subexpression the join treats as an opaque leaf. The
// Evaluator closes its environment (database, local IFP bindings, polarity)
// into this function.
type leafEval func(Expr) (value.Set, error)

// evalJoin evaluates a planned σ over a product eagerly: it evaluates every
// leaf in tree (in-)order — the order the reference evaluates them, so leaf
// errors surface identically — binds them to the plan, and walks the plan's
// steps depth first, adding each reconstructed element that passes the
// complete test to one builder. The elements are distinct, one per
// combination of leaf elements, so the builder's size is the result's and
// the walk stops with ErrBudget once it exceeds MaxSetSize. One
// obsv.StreamStats event reports what the join read.
func (ev *Evaluator) evalJoin(plan *joinPlan, leaf leafEval) (value.Set, error) {
	sets := make([]value.Set, len(plan.leaves))
	for i, l := range plan.leaves {
		s, err := leaf(l.expr)
		if err != nil {
			return value.Set{}, err
		}
		sets[i] = s
	}
	w := &joinWalk{
		plan: plan, poll: poller(ev.Budget), max: ev.Budget.MaxSetSize,
		st:  obsv.StreamStats{Op: "select", Leaves: len(sets)},
		out: value.NewSetBuilder(0), row: make([]value.Value, len(plan.leaves)), env: FEnv{},
	}
	// An empty leaf empties the product: read nothing. This is round 0 of
	// every semi-naive IFP, whose delta starts empty.
	if !plan.bind(sets) {
		w.read = make([]stepRead, len(plan.steps))
		for _, l := range plan.leaves {
			w.st.Pushed += len(l.filters)
			w.st.Probes += l.probes
		}
		if err := w.walk(0); err != nil {
			return value.Set{}, err
		}
	}
	out := w.out.Set()
	if ev.obs != nil {
		w.st.Result = out.Len()
		ev.obs.Collect(w.st)
	}
	return out, nil
}

// joinWalk is the state of one join's depth-first walk: one level per plan
// step, reconstructing the original nested product element from the bound
// row and re-checking the complete test on it. A step reads its leaf when
// the first bound row reaches it, not before: a join whose driving scan
// comes up empty has filtered and sorted nothing.
type joinWalk struct {
	plan *joinPlan
	poll func() error // once per candidate row tried
	max  int
	st   obsv.StreamStats
	out  *value.SetBuilder

	read  []stepRead    // per step
	row   []value.Value // current element per leaf
	env   FEnv          // complete-test environment, reused per row
	parts []value.Value // probe scratch
}

// stepRead is what a step has read of its leaf, once the first bound row
// reached it: the leaf after its pushed filters and, for a keyed step, its
// sorted copy. A probe step reads the leaf's own order and keeps nothing.
type stepRead struct {
	ready bool
	all   rows
	idx   keyIndex
}

// walk binds step d's candidates in turn and goes one step deeper; below the
// last step it tests the reconstructed element.
func (w *joinWalk) walk(d int) error {
	cand := w.candidates(d)
	leaf := w.plan.steps[d].leaf
	last := d+1 == len(w.plan.steps)
	for i := 0; i < cand.len(); i++ {
		if err := w.poll(); err != nil {
			return err
		}
		w.row[leaf] = cand.at(i)
		if !last {
			if err := w.walk(d + 1); err != nil {
				return err
			}
			continue
		}
		out := reconstruct(w.plan.shape, w.row)
		w.st.Tested++
		w.env[w.plan.v] = out
		keep, err := EvalTest(w.plan.test, w.env)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		w.st.Emitted++
		if w.out.Add(out); w.out.Len() > w.max {
			return fmt.Errorf("%w: joined result exceeds MaxSetSize %d", ErrBudget, w.max)
		}
	}
	return nil
}

// candidates returns the elements step d offers the currently bound row:
// the probed range of its join keys, in the leaf's own order or in its
// sorted copy, or — for the driving scan, a cross step, and a bound row to
// which a probe key does not apply — the whole filtered leaf.
func (w *joinWalk) candidates(d int) rows {
	st := &w.plan.steps[d]
	l := &w.plan.leaves[st.leaf]
	r := &w.read[d]
	if !r.ready && !st.probe {
		r.ready = true
		r.all = l.scan(w.plan.v, &w.st)
		if len(st.buildKeys) > 0 {
			r.idx = sortByKey(r.all, st.buildKeys)
			w.st.HashJoins++
		}
	}
	if len(st.probeKeys) > 0 && w.keyValues(st.probeKeys) {
		if !st.probe {
			return rows{list: r.idx.lookup(w.parts)}
		}
		rng := l.set.PrefixRange(w.parts...)
		w.st.Probes++
		w.st.Scanned += rng.Len()
		return rows{set: rng}
	}
	if st.probe {
		w.st.Scanned += l.set.Len()
		return rows{set: l.set}
	}
	return r.all
}

// keyValues projects the bound row onto the probe keys, into w.parts.
// ok=false when a key path does not apply to the row.
func (w *joinWalk) keyValues(keys []leafPath) (ok bool) {
	w.parts = w.parts[:0]
	for _, k := range keys {
		v, ok := applyPath(w.row[k.leaf], k.path)
		if !ok {
			return false
		}
		w.parts = append(w.parts, v)
	}
	return true
}

// scan reads the leaf through its pushed filters: the candidates the prefix
// ranges left, minus those a remaining filter rejects. A filter error keeps
// the element: the complete re-check reproduces whatever the reference would
// have raised for the pairs the join actually forms. A leaf that needs no
// element-wise filtering is returned as a view, not a copy.
func (l *planLeaf) scan(v string, st *obsv.StreamStats) rows {
	st.Scanned += l.size
	rest := l.filters[l.used:]
	if len(rest) == 0 && len(l.runs) == 1 {
		return rows{set: l.runs[0]}
	}
	kept := make([]value.Value, 0, l.size)
	env := FEnv{}
	for _, run := range l.runs {
		for j := 0; j < run.Len(); j++ {
			env[v] = run.At(j)
			if keep, err := allTrue(rest, env); keep || err != nil {
				kept = append(kept, run.At(j))
			}
		}
	}
	return rows{list: kept}
}

// keyIndex is a keyed step's filtered leaf sorted by its composite join key,
// read by binary search: the range read a probe step makes of a set's own
// order, made of a copy. Elements whose key fails to apply (a kind or arity
// mismatch) are loose and join every probe, deferring the error or mismatch
// to the complete-test re-check.
type keyIndex struct {
	keys   []KeyPath
	sorted []value.Value // elements whose key applies, in key order, then leaf order
	loose  []value.Value
}

// sortByKey sorts a copy of elems on the composite key paths.
func sortByKey(elems rows, keys []KeyPath) keyIndex {
	idx := keyIndex{keys: keys, sorted: make([]value.Value, 0, elems.len())}
	for i := 0; i < elems.len(); i++ {
		e := elems.at(i)
		if idx.applies(e) {
			idx.sorted = append(idx.sorted, e)
		} else {
			idx.loose = append(idx.loose, e)
		}
	}
	slices.SortStableFunc(idx.sorted, func(a, b value.Value) int {
		for _, k := range keys {
			ka, _ := applyPath(a, k)
			kb, _ := applyPath(b, k)
			if c := ka.Compare(kb); c != 0 {
				return c
			}
		}
		return 0
	})
	return idx
}

// applies reports whether every key path applies to e.
func (idx *keyIndex) applies(e value.Value) bool {
	for _, k := range idx.keys {
		if _, ok := applyPath(e, k); !ok {
			return false
		}
	}
	return true
}

// compare orders e's composite key against parts.
func (idx *keyIndex) compare(e value.Value, parts []value.Value) int {
	for i, k := range idx.keys {
		v, _ := applyPath(e, k)
		if c := v.Compare(parts[i]); c != 0 {
			return c
		}
	}
	return 0
}

// lookup returns the candidates whose composite key equals parts, followed
// by the loose elements.
func (idx *keyIndex) lookup(parts []value.Value) []value.Value {
	s := idx.sorted
	lo := sort.Search(len(s), func(i int) bool { return idx.compare(s[i], parts) >= 0 })
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return idx.compare(s[lo+i], parts) > 0 })
	if len(idx.loose) == 0 {
		return s[lo:hi:hi]
	}
	return append(slices.Clip(s[lo:hi]), idx.loose...)
}
