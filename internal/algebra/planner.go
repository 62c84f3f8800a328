package algebra

import (
	"fmt"
	"strings"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

// This file is the cost-based join planner: it compiles σ_test over a tree
// of products into pushed filters and keyed steps that evalJoin (join.go)
// walks eagerly. The
// algebra has no join operator — the paper builds joins from ×, σ and MAP —
// so every join arrives as a selection over a (possibly nested) product.
// The planner
//
//   - flattens the product tree into leaves,
//   - splits the test into conjuncts, pushes single-leaf conjuncts into the
//     leaf scans, and turns leaf-to-leaf equality conjuncts into join edges,
//   - once the leaves are evaluated, picks each leaf's access path (access.go):
//     pushed conjuncts that fix leading components to constants narrow the
//     leaf by prefix range, an edge on the leading components of an
//     unfiltered leaf probes its range per bound row, and every other edge
//     sorts a copy of its filtered leaf by the join key on first use and
//     reads it by binary search,
//   - orders the leaves greedily by estimated cardinality plus what a step
//     must build (exact leaf sizes × selectivity defaults — see
//     docs/planner.md for the model),
//   - and re-checks the complete original test on every reconstructed
//     element, so the result set is exactly σ_test(product).
//
// Pruning is conservative about errors: a pushed conjunct that errors on a
// leaf element keeps the element (the final re-check surfaces whatever the
// naive evaluation would have), and elements whose join key fails to apply
// join every probe instead of being dropped.

// maxPlanLeaves caps the flattened product width: beyond it the planner
// refuses and the evaluator builds the product and scans it. Translated
// programs produce two-leaf joins; the cap only guards degenerate towers.
const maxPlanLeaves = 8

// Selectivity defaults, multiplied per pushed conjunct onto the exact leaf
// cardinality. The absolute values matter less than the ordering: equality
// prunes hardest, negation barely at all.
const (
	selEq      = 0.1
	selNe      = 0.9
	selRange   = 0.4
	selMember  = 0.3
	selGeneric = 0.7
)

// selCmp is a pushed comparison's selectivity, by operator.
var selCmp = [...]float64{builtin.Eq: selEq, builtin.Ne: selNe, builtin.Lt: selRange, builtin.Le: selRange, builtin.Gt: selRange, builtin.Ge: selRange}

// prodNode is the shape of the flattened product tree: either a leaf index
// or an internal pair node. It drives element reconstruction.
type prodNode struct {
	leaf int // leaf index when l == nil
	l, r *prodNode
}

// planLeaf is one scan of the join: an opaque subexpression and the
// conjuncts pushed into its scan (rewritten onto the bare leaf element, in
// conjunct order). bind adds what is known once the leaf is evaluated: the
// set, what the leading constant conjuncts leave of it (narrowed.used of the
// filters are answered by prefix range, the rest run on the candidates), and
// the post-filter cardinality estimate.
type planLeaf struct {
	expr    Expr
	filters []FExpr

	set value.Set
	narrowed
	est   float64
	width int // memo for hasFields: the least tuple width, 0 while unknown
}

// leafPath addresses a projection of one leaf's element: leaf index plus a
// field path within the element.
type leafPath struct {
	leaf int
	path KeyPath
}

// joinEdge is one cross-leaf equality conjunct usable as a join key.
type joinEdge struct {
	a, b leafPath // a.leaf < b.leaf
}

// planStep binds one more leaf into the join. With keys present the step is
// keyed: the values of probeKeys, computed over already-bound leaves, select
// the new leaf's elements agreeing on buildKeys — from a copy of the filtered
// leaf sorted by buildKeys on first use or, when probe is set, straight from
// the leaf's own sorted order. Without keys it is a nested-loop cross step.
type planStep struct {
	leaf      int
	probeKeys []leafPath
	buildKeys []KeyPath
	// probe: buildKeys are .1 … .m, in that order, of an unfiltered leaf
	// all of whose elements have them, so the candidates of a bound row are
	// one PrefixRange of the leaf and nothing is built.
	probe bool
}

// joinPlan is the compiled strategy for one σ over a product.
type joinPlan struct {
	v      string // the selection's element variable
	test   FExpr  // the complete original test
	leaves []planLeaf
	shape  *prodNode
	edges  []joinEdge // cross-leaf equality conjuncts, in conjunct order
	steps  []planStep // steps[0] is the driving scan (no keys)
}

// planJoin compiles σ_test(prod) into a joinPlan. ok=false means the shape
// is out of scope (too many leaves) and the caller must materialize.
func planJoin(v string, test FExpr, prod Product) (*joinPlan, bool) {
	p := &joinPlan{v: v, test: test}
	p.shape = p.flatten(prod)
	if len(p.leaves) > maxPlanLeaves {
		return nil, false
	}
	p.edges = p.analyze(test)
	return p, true
}

// flatten records the leaves of a product tree in evaluation (in-)order and
// returns its shape.
func (p *joinPlan) flatten(e Expr) *prodNode {
	if prod, isProd := e.(Product); isProd {
		l := p.flatten(prod.L)
		r := p.flatten(prod.R)
		return &prodNode{l: l, r: r}
	}
	p.leaves = append(p.leaves, planLeaf{expr: e})
	return &prodNode{leaf: len(p.leaves) - 1}
}

// resolve maps a field path rooted at the product element onto a leaf: the
// tree prefix selects the leaf, the suffix projects within its element.
// ok=false when the path stops inside the tree (it spans several leaves).
func (p *joinPlan) resolve(path []int) (lp leafPath, ok bool) {
	n := p.shape
	i := 0
	for n.l != nil {
		if i >= len(path) {
			return leafPath{}, false // addresses a whole subtree
		}
		switch path[i] {
		case 1:
			n = n.l
		case 2:
			n = n.r
		default:
			return leafPath{}, false // projects a pair out of range
		}
		i++
	}
	return leafPath{leaf: n.leaf, path: KeyPath(path[i:])}, true
}

// analyze splits the test into conjuncts and classifies each: single-leaf
// conjuncts are rewritten and pushed into that leaf's filters, cross-leaf
// equalities of pure projection chains become join edges, everything else
// is left to the final re-check.
func (p *joinPlan) analyze(test FExpr) []joinEdge {
	var edges []joinEdge
	for _, a := range conjuncts(test) {
		if f, leaf, ok := p.rewriteAtom(a); ok {
			p.leaves[leaf].filters = append(p.leaves[leaf].filters, f)
			continue
		}
		cmp, isCmp := a.(FCmp)
		if !isCmp || cmp.Op != builtin.Eq {
			continue
		}
		lp, lok := p.chainPath(cmp.L)
		rp, rok := p.chainPath(cmp.R)
		if !lok || !rok || lp.leaf == rp.leaf {
			continue
		}
		if lp.leaf > rp.leaf {
			lp, rp = rp, lp
		}
		edges = append(edges, joinEdge{a: lp, b: rp})
	}
	return edges
}

// chainPath decomposes an FExpr that is exactly a field-projection chain
// rooted at the element variable and resolves it to a single leaf.
func (p *joinPlan) chainPath(e FExpr) (leafPath, bool) {
	var rev []int
	for {
		switch ee := e.(type) {
		case FField:
			rev = append(rev, ee.Idx)
			e = ee.Of
		case FVar:
			if ee.Name != p.v {
				return leafPath{}, false
			}
			path := make([]int, len(rev))
			for i, idx := range rev {
				path[len(rev)-1-i] = idx
			}
			return p.resolve(path)
		default:
			return leafPath{}, false
		}
	}
}

// rewriteAtom rebuilds an atom with every element-variable projection chain
// re-rooted on the bare leaf element, provided all chains land in the same
// leaf. ok=false when the atom touches several leaves, addresses a subtree,
// references the whole element, or mentions a foreign variable.
func (p *joinPlan) rewriteAtom(a FExpr) (out FExpr, leaf int, ok bool) {
	leaf = -1
	var rw func(e FExpr) (FExpr, bool)
	rebuildChain := func(e FExpr) (FExpr, bool) {
		lp, ok := p.chainPath(e)
		if !ok {
			return nil, false
		}
		if leaf == -1 {
			leaf = lp.leaf
		} else if leaf != lp.leaf {
			return nil, false
		}
		var out FExpr = FVar{Name: p.v}
		for _, idx := range lp.path {
			out = FField{Of: out, Idx: idx}
		}
		return out, true
	}
	rw = func(e FExpr) (FExpr, bool) {
		switch ee := e.(type) {
		case FVar:
			return nil, false // the whole element, or a foreign variable
		case FConst:
			return ee, true
		case FField:
			return rebuildChain(ee)
		case FTuple:
			elems := make([]FExpr, len(ee.Elems))
			for i, sub := range ee.Elems {
				s, ok := rw(sub)
				if !ok {
					return nil, false
				}
				elems[i] = s
			}
			return FTuple{Elems: elems}, true
		case FCmp:
			l, lok := rw(ee.L)
			r, rok := rw(ee.R)
			if !lok || !rok {
				return nil, false
			}
			return FCmp{Op: ee.Op, L: l, R: r}, true
		case FArith:
			l, lok := rw(ee.L)
			r, rok := rw(ee.R)
			if !lok || !rok {
				return nil, false
			}
			return FArith{Op: ee.Op, L: l, R: r}, true
		case FAnd:
			l, lok := rw(ee.L)
			r, rok := rw(ee.R)
			if !lok || !rok {
				return nil, false
			}
			return FAnd{L: l, R: r}, true
		case FOr:
			l, lok := rw(ee.L)
			r, rok := rw(ee.R)
			if !lok || !rok {
				return nil, false
			}
			return FOr{L: l, R: r}, true
		case FNot:
			s, ok := rw(ee.E)
			if !ok {
				return nil, false
			}
			return FNot{E: s}, true
		case FMem:
			s, ok := rw(ee.Elem)
			if !ok {
				return nil, false
			}
			t, ok := rw(ee.Set)
			if !ok {
				return nil, false
			}
			return FMem{Elem: s, Set: t}, true
		default:
			return nil, false
		}
	}
	out, ok = rw(a)
	if !ok || leaf == -1 {
		return nil, 0, false
	}
	return out, leaf, true
}

// selectivity estimates the fraction of elements a pushed conjunct keeps.
func selectivity(f FExpr) float64 {
	switch ff := f.(type) {
	case FCmp:
		return selCmp[ff.Op]
	case FMem:
		return selMember
	case FNot:
		return 1 - selectivity(ff.E)
	default:
		return selGeneric
	}
}

// estimate returns the planner's cardinality estimate for a leaf with n
// elements: the exact size shrunk by the selectivity of each pushed filter.
func estimate(n int, filters []FExpr) float64 {
	est := float64(n)
	for _, f := range filters {
		est *= selectivity(f)
	}
	return est
}

// bind hands the plan its evaluated leaves and fixes every access path:
// each leaf's leading constant filters are answered by prefix range
// (narrow), then reorder picks the visit order and, per step, range probe or
// sorted copy. It reports whether some leaf is empty — then so is the join,
// and no order is needed.
func (p *joinPlan) bind(sets []value.Set) (empty bool) {
	for i := range p.leaves {
		l := &p.leaves[i]
		l.set = sets[i]
		l.narrowed = narrow(l.set, p.v, l.filters)
		if l.size == 0 {
			empty = true
		}
	}
	if !empty {
		p.reorder()
	}
	return empty
}

// hasFields reports whether every element of the leaf is a tuple of at least
// m components. One component is an O(1) question (hasField); more takes one
// pass over the leaf, made at most once. The leaf is not empty: bind orders
// no plan that has an empty leaf.
func (l *planLeaf) hasFields(m int) bool {
	if !hasField(l.set, 1) {
		return false
	}
	if m > 1 && l.width == 0 {
		l.width = l.set.At(0).(value.Tuple).Len()
		for i := 1; i < l.set.Len(); i++ {
			l.width = min(l.width, l.set.At(i).(value.Tuple).Len())
		}
	}
	return m == 1 || l.width >= m
}

// probeable decides whether a keyed step can read its leaf through the sorted
// order instead of a sorted copy, and if so puts the keys in component order.
// The build keys must be exactly .1 … .m; the leaf must be unfiltered (a
// filtered leaf is a short list, cheap to sort) and every element must have
// all m components: the sorted copy joins an element whose key does not apply
// with every bound row, to let the complete test raise what the reference
// would, and a range can only stand in for the copy when there is no such
// element.
func (p *joinPlan) probeable(st *planStep) bool {
	l := &p.leaves[st.leaf]
	m := len(st.buildKeys)
	if len(l.filters) > 0 {
		return false
	}
	probeKeys := make([]leafPath, m)
	seen := make([]bool, m)
	for i, k := range st.buildKeys {
		if len(k) != 1 || k[0] < 1 || k[0] > m || seen[k[0]-1] {
			return false
		}
		seen[k[0]-1] = true
		probeKeys[k[0]-1] = st.probeKeys[i]
	}
	if !l.hasFields(m) {
		return false
	}
	for i := range st.buildKeys {
		st.buildKeys[i] = KeyPath{i + 1}
	}
	st.probeKeys = probeKeys
	return true
}

// reorder fixes the leaf visit order greedily from exact leaf sizes: start
// at the leaf with the smallest estimate (candidate rows × residual-filter
// selectivities), then repeatedly bind the leaf with the lowest price — the
// estimated intermediate size, joining over available edges when possible
// (each key multiplies by selEq) and crossing otherwise, plus the rows a
// keyed step must sort first; a step that probes the leaf's sorted order
// builds nothing. Ties break on the lower leaf index, so plans are
// deterministic.
func (p *joinPlan) reorder() {
	n := len(p.leaves)
	for i := range p.leaves {
		l := &p.leaves[i]
		l.est = estimate(l.size, l.filters[l.used:])
	}
	bound := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if p.leaves[i].est < p.leaves[start].est {
			start = i
		}
	}
	bound[start] = true
	p.steps = []planStep{{leaf: start}}
	cur := p.leaves[start].est
	for len(p.steps) < n {
		best, bestPrice, bestOut := -1, 0.0, 0.0
		var bestStep planStep
		for cand := 0; cand < n; cand++ {
			if bound[cand] {
				continue
			}
			step := planStep{leaf: cand}
			out := cur * p.leaves[cand].est
			for _, e := range p.edges {
				var here, there leafPath
				switch {
				case e.a.leaf == cand && bound[e.b.leaf]:
					here, there = e.a, e.b
				case e.b.leaf == cand && bound[e.a.leaf]:
					here, there = e.b, e.a
				default:
					continue
				}
				step.buildKeys = append(step.buildKeys, here.path)
				step.probeKeys = append(step.probeKeys, there)
				out *= selEq
			}
			price := out
			if len(step.buildKeys) > 0 {
				if step.probe = p.probeable(&step); !step.probe {
					price += p.leaves[cand].est
				}
			}
			if best == -1 || price < bestPrice {
				best, bestPrice, bestOut, bestStep = cand, price, out, step
			}
		}
		bound[best] = true
		p.steps = append(p.steps, bestStep)
		cur = bestOut
		if cur < 1 {
			cur = 1
		}
	}
}

// Explain renders the plan one step per line, for tests and docs: the
// driving scan, then each step with its access path — a range probe of the
// leaf's sorted order, a join on a sorted copy, or a cross step — and how many pushed
// filters the leaf carries, of which how many a prefix range answers.
func (p *joinPlan) Explain() string {
	var sb strings.Builder
	for i, st := range p.steps {
		l := p.leaves[st.leaf]
		switch {
		case i == 0:
			fmt.Fprintf(&sb, "scan leaf %d", st.leaf)
		case st.probe:
			fmt.Fprintf(&sb, "probe leaf %d on prefix .1", st.leaf)
			for k := 2; k <= len(st.buildKeys); k++ {
				fmt.Fprintf(&sb, ",.%d", k)
			}
		case len(st.buildKeys) > 0:
			fmt.Fprintf(&sb, "sort-join leaf %d on %d key(s)", st.leaf, len(st.buildKeys))
		default:
			fmt.Fprintf(&sb, "cross leaf %d", st.leaf)
		}
		switch {
		case l.used > 0:
			fmt.Fprintf(&sb, " [%d pushed filter(s), %d by range]", len(l.filters), l.used)
		case len(l.filters) > 0:
			fmt.Fprintf(&sb, " [%d pushed filter(s)]", len(l.filters))
		}
		fmt.Fprintf(&sb, " est=%.1f\n", l.est)
	}
	return sb.String()
}

// reconstruct rebuilds the original nested product element from a row of
// per-leaf bindings, following the tree shape.
func reconstruct(n *prodNode, row []value.Value) value.Value {
	if n.l == nil {
		return row[n.leaf]
	}
	return value.Pair(reconstruct(n.l, row), reconstruct(n.r, row))
}
