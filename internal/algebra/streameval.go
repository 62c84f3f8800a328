package algebra

import (
	"errors"
	"fmt"

	"algrec/internal/algebra/stream"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file is the streaming execution runtime: it compiles an operator
// pipeline — a spine of σ/MAP/∪/× nodes — into a lazy iterator over
// internal/algebra/stream, planning σ-over-product subtrees with the
// cost-based join planner (planner.go) so the product is never
// materialized. Subexpressions outside the spine (relations, literals,
// differences, IFPs, calls) are evaluated by the host evaluator through the
// LeafEval seam and scanned as sets, which is what lets both the two-valued
// evaluator (eval.go) and internal/core's three-valued dual evaluator share
// one runtime: the spine operators are polarity-transparent, so the host
// closes polarity (and local IFP bindings) into its LeafEval.
//
// Results are identical to the materialized path on error-free evaluations:
// the pipeline only ever prunes product pairs via pushed conjuncts and join
// keys, both of which are implied by the complete test, and the complete
// test is re-checked on every reconstructed element. Budget boundaries
// differ by design — the materialized path rejects a huge intermediate
// product even when the output is small; the streaming path bounds only
// buffered output — so a budget error on one path may be a success on the
// other. Budget.NoStreaming selects the materialized path, the reference.

// LeafEval evaluates a subexpression the streaming compiler treats as an
// opaque leaf. The host evaluator closes its environment (database, local
// IFP bindings, polarity) into this function.
type LeafEval func(Expr) (value.Set, error)

// StreamEligible reports whether e is a pipeline the streaming runtime
// accepts as an entry point: a σ or MAP whose operator spine (σ/MAP/∪
// nodes) reaches a product. Plain selections and maps over already-small
// sets stay on the materialized path, where the canonical set operations
// are cheaper than re-sorting a stream.
func StreamEligible(e Expr) bool {
	switch e.(type) {
	case Select, Map:
		return spineHasProduct(e)
	default:
		return false
	}
}

// spineHasProduct walks the operator spine the compiler streams (σ, MAP, ∪)
// looking for a product to pipeline.
func spineHasProduct(e Expr) bool {
	switch ee := e.(type) {
	case Product:
		return true
	case Select:
		return spineHasProduct(ee.Of)
	case Map:
		return spineHasProduct(ee.Of)
	case Union:
		return spineHasProduct(ee.L) || spineHasProduct(ee.R)
	default:
		return false
	}
}

// pipeProfile accumulates the counters of one streamed pipeline, emitted as
// a single obsv.Stream event by StreamEval.
type pipeProfile struct {
	leaves    int // leaf sets feeding the pipeline
	scanned   int // elements read from leaves: scanned, or returned by a probe
	probes    int // prefix-range probes of a leaf's sorted order
	tested    int // complete-test evaluations (post pushdown and join keys)
	emitted   int // elements surviving their selection tests
	hashJoins int // hash-join indexes built
	pushed    int // conjuncts pushed into leaf scans
}

// StreamEval evaluates an eligible pipeline lazily and collects the result
// into a canonical set, reporting one obsv.Stream event per call. The leaf
// function evaluates opaque subexpressions; budget caps the collected
// output size (the streaming counterpart of the materialized path's
// intermediate-set checks).
func StreamEval(e Expr, budget Budget, obs obsv.Collector, leaf LeafEval) (value.Set, error) {
	prof := &pipeProfile{}
	c := &streamCompiler{budget: budget, leaf: leaf, prof: prof, poll: poller(budget)}
	it, err := c.compile(e)
	if err != nil {
		return value.Set{}, err
	}
	out, err := stream.Collect(it, budget.MaxSetSize)
	if err != nil {
		if errors.Is(err, stream.ErrLimit) {
			return value.Set{}, fmt.Errorf("%w: streamed result exceeds MaxSetSize %d", ErrBudget, budget.MaxSetSize)
		}
		return value.Set{}, err
	}
	if obs != nil {
		obs.Collect(obsv.StreamStats{
			Op: opName(e), Leaves: prof.leaves, Scanned: prof.scanned, Probes: prof.probes,
			Tested: prof.tested, Emitted: prof.emitted, Result: out.Len(),
			HashJoins: prof.hashJoins, Pushed: prof.pushed,
		})
	}
	return out, nil
}

// opName names the pipeline's root operator for the observability event.
func opName(e Expr) string {
	switch e.(type) {
	case Select:
		return "select"
	case Map:
		return "map"
	case Union:
		return "union"
	case Product:
		return "product"
	default:
		return "expr"
	}
}

// streamCompiler turns spine expressions into iterators.
type streamCompiler struct {
	budget Budget
	leaf   LeafEval
	prof   *pipeProfile
	poll   func() error // once per element any operator of the pipeline handles
}

func (c *streamCompiler) compile(e Expr) (stream.Iterator, error) {
	switch ee := e.(type) {
	case Select:
		if prod, isProd := ee.Of.(Product); isProd {
			it, ok, err := c.compileJoin(ee.Var, ee.Test, prod)
			if ok || err != nil {
				return it, err
			}
		}
		if !spineHasProduct(ee.Of) {
			// Nothing below to pipeline: the host's selection (EvalSelect)
			// can answer from the operand's sorted order; a filter here
			// could only scan it.
			return c.scanLeaf(e)
		}
		in, err := c.compile(ee.Of)
		if err != nil {
			return nil, err
		}
		// Iterators are single-use and pulled sequentially, so one
		// environment can be reused across elements.
		env := FEnv{}
		return stream.Filter(in, func(v value.Value) (bool, error) {
			if err := c.poll(); err != nil {
				return false, err
			}
			c.prof.tested++
			env[ee.Var] = v
			keep, err := EvalTest(ee.Test, env)
			if err != nil {
				return false, err
			}
			if keep {
				c.prof.emitted++
			}
			return keep, nil
		}), nil
	case Map:
		in, err := c.compile(ee.Of)
		if err != nil {
			return nil, err
		}
		env := FEnv{}
		return stream.Transform(in, func(v value.Value) (value.Value, error) {
			if err := c.poll(); err != nil {
				return nil, err
			}
			env[ee.Var] = v
			return EvalF(ee.Out, env)
		}), nil
	case Union:
		l, err := c.compile(ee.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(ee.R)
		if err != nil {
			return nil, err
		}
		return stream.Concat(l, r), nil
	case Product:
		it, ok, err := c.compileJoin("", nil, ee)
		if ok || err != nil {
			return it, err
		}
		return c.scanLeaf(e)
	default:
		return c.scanLeaf(e)
	}
}

// scanLeaf materializes an opaque subexpression and scans it.
func (c *streamCompiler) scanLeaf(e Expr) (stream.Iterator, error) {
	s, err := c.leaf(e)
	if err != nil {
		return nil, err
	}
	c.prof.leaves++
	c.prof.scanned += s.Len()
	return stream.FromSet(s), nil
}

// compileJoin plans and instantiates a σ-over-product (or bare product)
// pipeline. ok=false means the planner refused the shape and the caller
// should fall back to scanning the materialized subexpression.
func (c *streamCompiler) compileJoin(v string, test FExpr, prod Product) (stream.Iterator, bool, error) {
	plan, ok := planJoin(v, test, prod)
	if !ok {
		return nil, false, nil
	}
	// Evaluate every leaf in tree (in-)order — the order the materialized
	// path evaluates them, so leaf errors surface identically.
	sets := make([]value.Set, len(plan.leaves))
	for i, l := range plan.leaves {
		s, err := c.leaf(l.expr)
		if err != nil {
			return nil, true, err
		}
		sets[i] = s
	}
	c.prof.leaves += len(sets)
	if plan.bind(sets) {
		// An empty leaf empties the product: read nothing. This is round 0
		// of every semi-naive IFP, whose delta starts empty.
		return stream.FromSlice(nil), true, nil
	}
	for _, l := range plan.leaves {
		c.prof.pushed += len(l.filters)
		c.prof.probes += l.probes
	}
	return newJoinIter(plan, c.prof, c.poll), true, nil
}

// scan reads the leaf through its pushed filters: the candidates the prefix
// ranges left, minus those a remaining filter rejects. A filter error keeps
// the element: the complete re-check reproduces whatever the materialized
// evaluation would have raised for the pairs it actually forms. A leaf that
// needs no element-wise filtering is returned as a view, not a copy.
func (l *planLeaf) scan(v string, prof *pipeProfile) rows {
	prof.scanned += l.size
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

// hashIndex buckets one leaf's elements by the interned ID of their
// composite join key. Elements whose key fails to apply (a kind or arity
// mismatch) land in the loose bucket and join every probe, deferring the
// error or mismatch to the complete-test re-check.
type hashIndex struct {
	byID  map[intern.ID][]value.Value
	loose []value.Value
}

// buildIndex hashes elems on the composite key paths.
func buildIndex(elems rows, keys []KeyPath) *hashIndex {
	idx := &hashIndex{byID: make(map[intern.ID][]value.Value, elems.len())}
	in := intern.Global()
	var parts []value.Value
	var ids []intern.ID
	for i := 0; i < elems.len(); i++ {
		e := elems.at(i)
		parts = parts[:0]
		for _, k := range keys {
			v, ok := applyPath(e, k)
			if !ok {
				break
			}
			parts = append(parts, v)
		}
		if len(parts) < len(keys) {
			idx.loose = append(idx.loose, e)
			continue
		}
		id := keyID(in, parts, &ids)
		idx.byID[id] = append(idx.byID[id], e)
	}
	return idx
}

// keyID conses a composite join key to its canonical ID: the component's own
// ID for a one-component key, the tuple of the components' IDs otherwise.
// ids is scratch reused across calls (InternTuple copies what it keeps).
func keyID(in *intern.Interner, parts []value.Value, ids *[]intern.ID) intern.ID {
	if len(parts) == 1 {
		return in.Intern(parts[0])
	}
	is := (*ids)[:0]
	for _, v := range parts {
		is = append(is, in.Intern(v))
	}
	*ids = is
	return in.InternTuple(is...)
}

// lookup returns the candidates whose composite key equals parts, followed
// by the loose bucket.
func (idx *hashIndex) lookup(parts []value.Value, ids *[]intern.ID) []value.Value {
	bucket := idx.byID[keyID(intern.Global(), parts, ids)]
	if len(idx.loose) == 0 {
		return bucket
	}
	out := make([]value.Value, 0, len(bucket)+len(idx.loose))
	out = append(out, bucket...)
	out = append(out, idx.loose...)
	return out
}

// joinIter enumerates the join pipeline's rows with a cursor stack — one
// level per plan step — reconstructing the original nested product element
// and re-checking the complete test before emitting. A step reads its leaf
// when the first bound row reaches it, not before: a pipeline whose driving
// scan comes up empty has filtered and indexed nothing.
type joinIter struct {
	plan *joinPlan
	prof *pipeProfile
	poll func() error // once per candidate row tried

	ready []bool        // per step: scanned and, for a hash step, indexed
	all   []rows        // per step: the leaf after its pushed filters (unused by probe steps)
	idx   []*hashIndex  // per step: the index of a hash step
	row   []value.Value // current element per leaf
	cand  []rows        // candidates per step depth
	pos   []int         // cursor per step depth
	depth int
	done  bool
	env   FEnv          // complete-test environment, reused per row
	parts []value.Value // probe scratch
	ids   []intern.ID   // probe scratch
}

func newJoinIter(plan *joinPlan, prof *pipeProfile, poll func() error) *joinIter {
	n := len(plan.steps)
	return &joinIter{
		plan: plan, prof: prof, poll: poll,
		ready: make([]bool, n), all: make([]rows, n), idx: make([]*hashIndex, n),
		row: make([]value.Value, len(plan.leaves)), cand: make([]rows, n), pos: make([]int, n),
		env: FEnv{},
	}
}

// candidates returns the elements step d offers the currently bound row:
// the probed range or hash bucket of its join keys, or — for the driving
// scan, a cross step, and a bound row to which a probe key does not apply —
// the whole filtered leaf.
func (it *joinIter) candidates(d int) rows {
	st := &it.plan.steps[d]
	l := &it.plan.leaves[st.leaf]
	if !it.ready[d] && !st.probe {
		it.ready[d] = true
		it.all[d] = l.scan(it.plan.v, it.prof)
		if len(st.buildKeys) > 0 {
			it.idx[d] = buildIndex(it.all[d], st.buildKeys)
			it.prof.hashJoins++
		}
	}
	if len(st.probeKeys) > 0 && it.keyValues(st.probeKeys) {
		if !st.probe {
			return rows{list: it.idx[d].lookup(it.parts, &it.ids)}
		}
		r := l.set.PrefixRange(it.parts...)
		it.prof.probes++
		it.prof.scanned += r.Len()
		return rows{set: r}
	}
	if st.probe {
		it.prof.scanned += l.set.Len()
		return rows{set: l.set}
	}
	return it.all[d]
}

// keyValues projects the bound row onto the probe keys, into it.parts.
// ok=false when a key path does not apply to the row.
func (it *joinIter) keyValues(keys []leafPath) (ok bool) {
	it.parts = it.parts[:0]
	for _, k := range keys {
		v, ok := applyPath(it.row[k.leaf], k.path)
		if !ok {
			return false
		}
		it.parts = append(it.parts, v)
	}
	return true
}

// Next implements stream.Iterator: it advances the join odometer to the
// next row of the reordered leaves whose probed candidates survive the
// complete selection test, reconstructing the original product shape before
// testing so pruning can never change the result.
func (it *joinIter) Next() (value.Value, bool, error) {
	if it.done {
		return nil, false, nil
	}
	if !it.ready[0] {
		it.cand[0] = it.candidates(0)
	}
	d := it.depth
	for {
		if it.pos[d] >= it.cand[d].len() {
			d--
			if d < 0 {
				it.done = true
				return nil, false, nil
			}
			continue
		}
		if err := it.poll(); err != nil {
			it.done = true
			return nil, false, err
		}
		st := it.plan.steps[d]
		it.row[st.leaf] = it.cand[d].at(it.pos[d])
		it.pos[d]++
		if d+1 < len(it.plan.steps) {
			it.cand[d+1] = it.candidates(d + 1)
			it.pos[d+1] = 0
			d++
			continue
		}
		out := reconstruct(it.plan.shape, it.row)
		if it.plan.test != nil {
			it.prof.tested++
			it.env[it.plan.v] = out
			keep, err := EvalTest(it.plan.test, it.env)
			if err != nil {
				it.done = true
				return nil, false, err
			}
			if !keep {
				continue
			}
		}
		it.prof.emitted++
		it.depth = d
		return out, true, nil
	}
}
