package algebra

import (
	"fmt"

	"algrec/internal/builtin"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// This file chooses access paths. The algebra has no join and no index
// operator — every lookup arrives as σ, every join as σ over × — but a
// value.Set is kept sorted with tuples in lexicographic order, so every set
// is already a clustered index on its leading components
// (value.Set.PrefixRange) and answers membership by binary search. Four places
// read a set through that order instead of scanning, sorting or building all
// of it:
//
//   - a selection whose test starts with conjuncts fixing .1, .2, … to
//     constants (probeSelect);
//   - a join leaf whose pushed conjuncts start that way (planLeaf.narrow);
//   - a keyed join step whose build keys are exactly the leading components
//     of an unfiltered leaf (planStep.probe, see planner.go): the leaf's range
//     is probed per bound row and no sorted copy is made;
//   - a difference whose subtrahend is built from products (evalDiff): whether
//     (x, y) lies in A × B is a lookup in A and one in B, so the minuend is
//     filtered by lookups and the product is never built.
//
// A probe must be indistinguishable from the scan it replaces, errors
// included. Skipping an element is what the scan's short-circuit evaluation
// does — without error — exactly when the conjunct's projection applies to
// the element and the compared values differ, so a probe on .j is legal only
// when .j applies to every element it would skip (hasField, O(1) on a
// canonical set), and only a prefix of the conjunct list, in evaluation
// order, may be consumed: whatever follows runs on the candidates as before.
// Everything else — `p.2 = d and p.1 = c`, a set holding a scalar — falls
// back to the scan and raises what it always raised. NewReference's
// evaluator scans everything, so the expr-stream oracle pins all of this.

// evalSelect evaluates a selection; the Evaluator closes its environment
// (database, local IFP bindings, polarity) into leaf. It picks, in order: the
// planned join when the operand is a product (join.go); the union of the
// selection over each branch when the operand is a union whose spine reaches
// a product; a prefix probe when the test fixes leading components to
// constants; the element-by-element scan. On the reference only the scan is
// left: a σ over a product builds the product first.
func (ev *Evaluator) evalSelect(e Select, leaf leafEval) (value.Set, error) {
	if !ev.ref {
		switch of := e.Of.(type) {
		case Product:
			if plan, ok := planJoin(e.Var, e.Test, of); ok {
				return ev.evalJoin(plan, leaf)
			}
		case Union:
			if reachesProduct(of) {
				l, err := ev.evalSelect(Select{Of: of.L, Var: e.Var, Test: e.Test}, leaf)
				if err != nil {
					return value.Set{}, err
				}
				r, err := ev.evalSelect(Select{Of: of.R, Var: e.Var, Test: e.Test}, leaf)
				if err != nil {
					return value.Set{}, err
				}
				return ev.checkSize(l.Union(r))
			}
		}
	}
	of, err := leaf(e.Of)
	if err != nil {
		return value.Set{}, err
	}
	if !ev.ref {
		if out, ok, err := probeSelect(of, e.Var, e.Test, ev.obs); ok || err != nil {
			return out, err
		}
	}
	poll := poller(ev.Budget)
	return of.Select(func(v value.Value) (bool, error) {
		if err := poll(); err != nil {
			return false, err
		}
		return EvalTest(e.Test, FEnv{e.Var: v})
	})
}

// evalMap maps its evaluated operand element by element. A MAP over a bare
// product builds the product, bounded as the reference bounds it.
func (ev *Evaluator) evalMap(e Map, leaf leafEval) (value.Set, error) {
	of, err := leaf(e.Of)
	if err != nil {
		return value.Set{}, err
	}
	poll := poller(ev.Budget)
	return of.Map(func(v value.Value) (value.Value, error) {
		if err := poll(); err != nil {
			return nil, err
		}
		return EvalF(e.Out, FEnv{e.Var: v})
	})
}

// pollEvery is how many elements a loop of an evaluation — a scan, a join, a
// product or difference being built — handles between two looks at
// Budget.Interrupt: the datalog kernel's interval (rel.pollEvery).
const pollEvery = 1 << 12

// poller returns the check a loop makes once per element: every pollEvery
// calls, from the first, it looks at the interrupt.
func poller(b Budget) func() error {
	n := 0
	return func() error {
		if n++; n%pollEvery != 1 {
			return nil
		}
		return b.Stop()
	}
}

// evalProduct materializes l × r within the budget: every product the
// Evaluator still builds goes through here.
func evalProduct(l, r value.Set, b Budget) (value.Set, error) {
	// Division-based comparison: l.Len()*r.Len() can overflow int and
	// silently skip the guard.
	if l.Len() > 0 && r.Len() > b.MaxSetSize/l.Len() {
		return value.Set{}, fmt.Errorf("%w: product of %d x %d elements exceeds MaxSetSize %d", ErrBudget, l.Len(), r.Len(), b.MaxSetSize)
	}
	return l.ProductPolled(r, pollEvery, b.Stop)
}

// spine is a subtrahend as evalDiff probes it: the ∪/× operators above its
// evaluated leaves. A leaf has neither child.
type spine struct {
	product bool // l × r; otherwise l ∪ r
	l, r    *spine
	leaf    value.Set
}

// reachesProduct reports whether the ∪/× spine of e reaches a product.
func reachesProduct(e Expr) bool {
	switch ee := e.(type) {
	case Product:
		return true
	case Union:
		return reachesProduct(ee.L) || reachesProduct(ee.R)
	}
	return false
}

// evalSpine evaluates the leaves under e's ∪/× spine — everything that is not
// itself a union or a product — whole and left to right, the order in which
// materializing e would reach them, and counts them.
func evalSpine(e Expr, leaf leafEval, leaves *int) (node *spine, err error) {
	node = &spine{}
	var l, r Expr
	switch ee := e.(type) {
	case Union:
		l, r = ee.L, ee.R
	case Product:
		l, r, node.product = ee.L, ee.R, true
	default:
		*leaves++
		node.leaf, err = leaf(e)
		return node, err
	}
	if node.l, err = evalSpine(l, leaf, leaves); err != nil {
		return nil, err
	}
	node.r, err = evalSpine(r, leaf, leaves)
	return node, err
}

// has reports whether v is a member of the set the spine denotes, counting
// the set lookups it takes: a product holds exactly the pairs of a member of
// each factor, a union what either side holds.
func (s *spine) has(v value.Value, lookups *int) bool {
	switch {
	case s.l == nil:
		*lookups++
		return s.leaf.Has(v)
	case s.product:
		t, ok := v.(value.Tuple)
		return ok && t.Len() == 2 && s.l.has(t.At(0), lookups) && s.r.has(t.At(1), lookups)
	default:
		return s.l.has(v, lookups) || s.r.has(v, lookups)
	}
}

// evalDiff evaluates a difference for the Evaluator; left and right
// evaluate subexpressions of the minuend and of the subtrahend, which the
// Evaluator reads at opposite polarities. When the subtrahend's ∪/×
// spine reaches a product, the spine's leaves are evaluated — always, so
// every leaf error surfaces whether or not anything is left to subtract from
// — and the minuend is filtered by membership in the spine: no product is
// built, and a filter of a canonical set needs no sort. Otherwise, and on the
// reference, the subtrahend is materialized and merged against.
func (ev *Evaluator) evalDiff(e Diff, left, right leafEval) (value.Set, error) {
	l, err := left(e.L)
	if err != nil {
		return value.Set{}, err
	}
	var out value.Set
	var probed, lookups int
	path, leaves := "materialized", 1
	if ev.ref || !reachesProduct(e.R) {
		r, err := right(e.R)
		if err != nil {
			return value.Set{}, err
		}
		out = l.Diff(r)
	} else {
		path, leaves = "probing", 0
		sub, err := evalSpine(e.R, right, &leaves)
		if err != nil {
			return value.Set{}, err
		}
		out, err = l.Select(func(v value.Value) (bool, error) {
			if probed%pollEvery == 0 {
				if err := ev.Budget.Stop(); err != nil {
					return false, err
				}
			}
			probed++
			return !sub.has(v, &lookups), nil
		})
		if err != nil {
			return value.Set{}, err
		}
	}
	if ev.obs != nil {
		ev.obs.Collect(obsv.DiffStats{Path: path, Probed: probed, Lookups: lookups, Kept: out.Len(), Leaves: leaves})
	}
	return out, nil
}

// conjuncts splits a test into its conjuncts in evaluation order: `and`
// evaluates left to right and stops at the first false one, whatever the
// nesting.
func conjuncts(test FExpr) []FExpr {
	if and, isAnd := test.(FAnd); isAnd {
		return append(conjuncts(and.L), conjuncts(and.R)...)
	}
	return []FExpr{test}
}

// constProbe recognises the conjuncts a prefix probe can answer: v.j = c,
// c = v.j and v.j in {literal set}, for the element variable v. keys holds
// the admitted values of component j.
func constProbe(a FExpr, v string) (field int, keys value.Set, ok bool) {
	varField := func(e FExpr) (int, bool) {
		f, isField := e.(FField)
		if !isField {
			return 0, false
		}
		of, isVar := f.Of.(FVar)
		return f.Idx, isVar && of.Name == v
	}
	switch aa := a.(type) {
	case FCmp:
		if aa.Op != builtin.Eq {
			return 0, value.Set{}, false
		}
		l, r := aa.L, aa.R
		if _, isConst := l.(FConst); isConst {
			l, r = r, l
		}
		c, isConst := r.(FConst)
		if field, ok = varField(l); ok && isConst {
			return field, value.NewSet(c.V), true
		}
	case FMem:
		c, isConst := aa.Set.(FConst)
		if field, ok = varField(aa.Elem); ok && isConst {
			keys, ok = c.V.(value.Set)
			return field, keys, ok
		}
	}
	return 0, value.Set{}, false
}

// hasField reports whether the projection .j applies to every element of
// run, which must be a whole canonical set when j = 1 and a PrefixRange on
// j−1 components otherwise. Both cases are O(1): kinds sort scalars < tuples
// < sets and the empty tuple first among tuples, so a set whose first element
// is a non-empty tuple and whose last element is a tuple holds nothing else;
// inside a (j−1)-prefix range every element is a tuple of at least j−1
// components and the one of exactly j−1, if present, comes first.
func hasField(run value.Set, j int) bool {
	if run.IsEmpty() {
		return true
	}
	first, ok := run.At(0).(value.Tuple)
	if !ok || first.Len() < j {
		return false
	}
	_, ok = run.At(run.Len() - 1).(value.Tuple)
	return ok
}

// narrowed is what the leading constant conjuncts leave of a set: the
// surviving runs in set order (so their concatenation is sorted) and their
// total size, how many conjuncts they answer, and the binary-search probes it
// took.
type narrowed struct {
	runs   []value.Set
	size   int
	used   int
	probes int
}

// narrow consumes the longest legal prefix of atoms — conjuncts over the
// element variable v, in evaluation order — that fixes components 1, 2, … of
// s's elements to constants, replacing the scan by prefix ranges. With
// nothing consumed the single run is s itself.
func narrow(s value.Set, v string, atoms []FExpr) narrowed {
	type run struct {
		set    value.Set
		prefix []value.Value
	}
	runs := []run{{set: s}}
	n := narrowed{}
	for n.used < len(atoms) {
		field, keys, ok := constProbe(atoms[n.used], v)
		if !ok || field != n.used+1 {
			break
		}
		rows := 0
		for _, r := range runs {
			ok = ok && hasField(r.set, field)
			rows += r.set.Len()
		}
		// One probe per (run, key): a literal set with more keys than there
		// are rows left is cheaper to test row by row.
		if !ok || len(runs)*keys.Len() > rows {
			break
		}
		var next []run
		for _, r := range runs {
			for i := 0; i < keys.Len(); i++ {
				prefix := append(r.prefix[:len(r.prefix):len(r.prefix)], keys.At(i))
				n.probes++
				if sub := r.set.PrefixRange(prefix...); !sub.IsEmpty() {
					next = append(next, run{set: sub, prefix: prefix})
				}
			}
		}
		runs = next
		n.used++
	}
	for _, r := range runs {
		n.runs = append(n.runs, r.set)
		n.size += r.set.Len()
	}
	return n
}

// probeSelect evaluates σ_test(s) through a prefix probe when the test
// starts with constant conjuncts on the leading components: the rest of the
// test runs on the candidates only. ok=false means no conjunct could be
// consumed and the caller scans. One obsv.Stream event reports the rows
// actually read.
func probeSelect(s value.Set, v string, test FExpr, obs obsv.Collector) (out value.Set, ok bool, err error) {
	atoms := conjuncts(test)
	n := narrow(s, v, atoms)
	if n.used == 0 {
		return value.Set{}, false, nil
	}
	rest := atoms[n.used:]
	if len(rest) == 0 && len(n.runs) == 1 {
		out = n.runs[0] // the range itself: nothing is copied
	} else {
		b := value.NewSetBuilder(n.size)
		env := FEnv{}
		for _, r := range n.runs {
			for i := 0; i < r.Len(); i++ {
				env[v] = r.At(i)
				keep, err := allTrue(rest, env)
				if err != nil {
					return value.Set{}, true, err
				}
				if keep {
					b.Add(r.At(i))
				}
			}
		}
		out = b.Set()
	}
	if obs != nil {
		st := obsv.StreamStats{Op: "select", Leaves: 1, Scanned: n.size, Probes: n.probes, Emitted: out.Len(), Result: out.Len()}
		if len(rest) > 0 {
			st.Tested = st.Scanned
		}
		obs.Collect(st)
	}
	return out, true, nil
}

// allTrue evaluates conjuncts left to right, stopping at the first false
// one, as the `and` they were split from does.
func allTrue(atoms []FExpr, env FEnv) (bool, error) {
	for _, a := range atoms {
		keep, err := EvalTest(a, env)
		if err != nil || !keep {
			return false, err
		}
	}
	return true, nil
}

// rows is a read-only run of one leaf's elements, as a join step iterates
// it: a set — a whole leaf or a probed range of one, never copied — or a
// list, for a filtered leaf or a range of its sorted copy.
type rows struct {
	set  value.Set
	list []value.Value
}

func (r rows) len() int { return r.set.Len() + len(r.list) }

func (r rows) at(i int) value.Value {
	if n := r.set.Len(); i >= n {
		return r.list[i-n]
	}
	return r.set.At(i)
}
