package algebra

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"algrec/internal/builtin"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// TestEquiJoinKeys: the planner makes a join edge of each equality between
// projection chains of the product's two sides, in either order, and of
// nothing else.
func TestEquiJoinKeys(t *testing.T) {
	p := FVar{Name: "p"}
	f := func(side int, idxs ...int) FExpr {
		e := FExpr(FField{Of: p, Idx: side})
		for _, i := range idxs {
			e = FField{Of: e, Idx: i}
		}
		return e
	}
	plan := func(test FExpr) *joinPlan {
		t.Helper()
		plan, ok := planJoin("p", test, Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}})
		if !ok {
			t.Fatalf("planJoin refused %s", test)
		}
		return plan
	}
	// p.1.2 = p.2.1
	test := FCmp{Op: builtin.Eq, L: f(1, 2), R: f(2, 1)}
	want := []joinEdge{{a: leafPath{leaf: 0, path: KeyPath{2}}, b: leafPath{leaf: 1, path: KeyPath{1}}}}
	if edges := plan(test).edges; !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	// swapped sides: the same edge
	if edges := plan(FCmp{Op: builtin.Eq, L: f(2, 1), R: f(1, 2)}).edges; !reflect.DeepEqual(edges, want) {
		t.Errorf("swapped sides: edges = %v, want %v", edges, want)
	}
	// conjunction with extra conditions: the other conjunct is pushed
	and := FAnd{L: test, R: FCmp{Op: builtin.Lt, L: f(1, 1), R: FConst{V: value.Int(5)}}}
	if pl := plan(and); len(pl.edges) != 1 || len(pl.leaves[0].filters) != 1 {
		t.Errorf("conjunct extraction failed: %d edges, %d filters on the left", len(pl.edges), len(pl.leaves[0].filters))
	}
	// two equi conjuncts
	and2 := FAnd{L: test, R: FCmp{Op: builtin.Eq, L: f(1, 1), R: f(2, 2)}}
	if edges := plan(and2).edges; len(edges) != 2 {
		t.Errorf("multi-key extraction failed: edges = %v", edges)
	}
	// no equi conjunct; one on a single side is a pushed filter instead
	for _, c := range []struct {
		bad    FExpr
		pushed int
	}{
		{FCmp{Op: builtin.Ne, L: f(1, 1), R: f(2, 1)}, 0},
		{FCmp{Op: builtin.Eq, L: f(1, 1), R: f(1, 2)}, 1}, // same side
		{FCmp{Op: builtin.Eq, L: f(1, 1), R: FConst{V: value.Int(3)}}, 1},
		{FConst{V: value.True}, 0},
		{FCmp{Op: builtin.Eq, L: FVar{Name: "other"}, R: f(2, 1)}, 0},
	} {
		pl := plan(c.bad)
		if pushed := len(pl.leaves[0].filters) + len(pl.leaves[1].filters); len(pl.edges) != 0 || pushed != c.pushed {
			t.Errorf("%s: %d edges and %d pushed filters, want none and %d", c.bad, len(pl.edges), pushed, c.pushed)
		}
	}
}

// TestHashJoinEqualsNaive: the keyed join computes exactly the
// reference's σ over the built product, on random tuple relations.
func TestHashJoinEqualsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mkRel := func(n int) value.Set {
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = value.Pair(value.Int(int64(r.Intn(5))), value.Int(int64(r.Intn(5))))
		}
		return value.NewSet(elems...)
	}
	p := FVar{Name: "p"}
	test := FAnd{
		L: FCmp{Op: builtin.Eq,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: p, Idx: 2}, Idx: 1}},
		R: FCmp{Op: builtin.Le,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 1},
			R: FConst{V: value.Int(3)}},
	}
	e := Select{Of: Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}}, Var: "p", Test: test}
	for i := 0; i < 300; i++ {
		assertStreamEq(t, e, DB{"l": mkRel(r.Intn(12)), "r": mkRel(r.Intn(12))})
	}
}

// TestHashJoinFallback: an element a key path does not apply to joins every
// probe, so the projection error surfaces exactly as the reference raises it.
func TestHashJoinFallback(t *testing.T) {
	db := DB{
		"l": value.NewSet(value.Int(7)),
		"r": value.NewSet(value.Pair(value.Int(1), value.Int(2))),
	}
	p := FVar{Name: "p"}
	e := Select{
		Of:  Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}},
		Var: "p",
		Test: FCmp{Op: builtin.Eq,
			L: FField{Of: FField{Of: p, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: p, Idx: 2}, Idx: 1}},
	}
	assertStreamEq(t, e, db)
	if _, err := NewEvaluator(db, Budget{}).Eval(e); err == nil {
		t.Error("projecting .2 out of 7 did not fail")
	}
}

// TestHashJoinTCEquivalence: end to end, the TC IFP expression evaluates
// identically on the production path and on the fully naive reference.
func TestHashJoinTCEquivalence(t *testing.T) {
	elems := make([]value.Value, 0, 20)
	for i := 0; i < 20; i++ {
		elems = append(elems, value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	db := DB{"move": value.NewSet(elems...)}
	e := tcExpr("move")
	fast, err := NewEvaluator(db, Budget{}).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewReference(db, Budget{}).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(fast, slow) {
		t.Errorf("fast %d elems vs slow %d elems", fast.Len(), slow.Len())
	}
	if fast.Len() != 20*21/2 {
		t.Errorf("|tc| = %d, want 210", fast.Len())
	}
}

// TestReferenceBuildsTheProduct: the reference (NewReference) is the naive
// evaluator, so a selective equi-join whose product exceeds MaxSetSize fails
// there with ErrBudget while the keyed join answers it.
func TestReferenceBuildsTheProduct(t *testing.T) {
	db := DB{"A": chainSet(10), "B": chainSet(10)}
	e := Select{
		Of:   Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var:  "p",
		Test: FCmp{Op: builtin.Eq, L: fld("p", 1, 2), R: fld("p", 2, 1)},
	}
	budget := Budget{MaxSetSize: 50}
	if got, err := NewEvaluator(db, budget).Eval(e); err != nil || got.Len() != 9 {
		t.Fatalf("joined: got %d pairs, err %v; want 9, nil", got.Len(), err)
	}
	if _, err := NewReference(db, budget).Eval(e); !errors.Is(err, ErrBudget) {
		t.Fatalf("reference: got %v, want ErrBudget (a 100-pair product over a 50 cap)", err)
	}
}

// rangeSet returns {0, 1, ..., n-1} as a set of integers.
func rangeSet(n int) value.Set {
	b := value.NewSetBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(value.Int(int64(i)))
	}
	return b.Set()
}

// chainSet returns {(i, i+1) | 0 <= i < n}.
func chainSet(n int) value.Set {
	b := value.NewSetBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	return b.Set()
}

func fld(v string, idx ...int) FExpr {
	var e FExpr = FVar{Name: v}
	for _, i := range idx {
		e = FField{Of: e, Idx: i}
	}
	return e
}

func parity(e FExpr) FExpr {
	return FCmp{Op: builtin.Eq,
		L: FArith{Op: builtin.Mod, L: e, R: FConst{V: value.Int(2)}},
		R: FConst{V: value.Int(0)}}
}

// equiSelect is the pinned pushdown example: σ_{p.1%2=0 ∧ p.1=p.2}(A×B).
func equiSelect() Expr {
	return Select{
		Of:  Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var: "p",
		Test: FAnd{
			L: parity(fld("p", 1)),
			R: FCmp{Op: builtin.Eq, L: fld("p", 1), R: fld("p", 2)},
		},
	}
}

// tcPipelineExpr is transitive closure of E as an IFP over a join pipeline.
func tcPipelineExpr() Expr {
	return IFP{Var: "t", Body: Union{
		L: Rel{Name: "E"},
		R: Map{
			Of: Select{
				Of:   Product{L: Rel{Name: "t"}, R: Rel{Name: "E"}},
				Var:  "u",
				Test: FCmp{Op: builtin.Eq, L: fld("u", 1, 2), R: fld("u", 2, 1)},
			},
			Var: "w",
			Out: FTuple{Elems: []FExpr{fld("w", 1, 1), fld("w", 2, 2)}},
		},
	}}
}

func TestPlanJoinPushdownAndEdges(t *testing.T) {
	sel := equiSelect().(Select)
	plan, ok := planJoin(sel.Var, sel.Test, sel.Of.(Product))
	if !ok {
		t.Fatal("planJoin refused a two-leaf join")
	}
	if len(plan.leaves) != 2 {
		t.Fatalf("got %d leaves, want 2", len(plan.leaves))
	}
	if len(plan.leaves[0].filters) != 1 || len(plan.leaves[1].filters) != 0 {
		t.Fatalf("pushed filters: leaf0 %d, leaf1 %d; want 1, 0",
			len(plan.leaves[0].filters), len(plan.leaves[1].filters))
	}
	if len(plan.edges) != 1 {
		t.Fatalf("got %d join edges, want 1", len(plan.edges))
	}
	plan.bind([]value.Set{rangeSet(10), rangeSet(10)})
	// The filtered leaf estimates 10×selEq = 1 < 10, so it drives the scan
	// and the other leaf is bound by a one-key join on a sorted copy.
	want := "scan leaf 0 [1 pushed filter(s)] est=1.0\nsort-join leaf 1 on 1 key(s) est=10.0\n"
	if got := plan.Explain(); got != want {
		t.Fatalf("Explain:\n%s\nwant:\n%s", got, want)
	}
}

func TestPlanJoinNestedPaths(t *testing.T) {
	// σ over (t×E) with the cross-leaf key u.1.2 = u.2.1: both sides are
	// nested one level below the leaf, so the edge carries inner paths.
	sel := tcPipelineExpr().(IFP).Body.(Union).R.(Map).Of.(Select)
	plan, ok := planJoin(sel.Var, sel.Test, sel.Of.(Product))
	if !ok {
		t.Fatal("planJoin refused the TC join")
	}
	if len(plan.edges) != 1 {
		t.Fatalf("got %d edges, want 1", len(plan.edges))
	}
	e := plan.edges[0]
	if e.a.leaf != 0 || len(e.a.path) != 1 || e.a.path[0] != 2 {
		t.Fatalf("edge left side = leaf %d path %v, want leaf 0 path [2]", e.a.leaf, e.a.path)
	}
	if e.b.leaf != 1 || len(e.b.path) != 1 || e.b.path[0] != 1 {
		t.Fatalf("edge right side = leaf %d path %v, want leaf 1 path [1]", e.b.leaf, e.b.path)
	}
	// E is a set of pairs and the key is its first component: the step reads
	// E's sorted order, no index.
	plan.bind([]value.Set{chainSet(3), chainSet(100)})
	if !strings.Contains(plan.Explain(), "probe leaf 1 on prefix .1") {
		t.Fatalf("Explain lacks the range-probe step:\n%s", plan.Explain())
	}
}

func TestPlanJoinRefusesWideTowers(t *testing.T) {
	var e Expr = Rel{Name: "A"}
	for i := 0; i < maxPlanLeaves; i++ { // maxPlanLeaves+1 leaves total
		e = Product{L: e, R: Rel{Name: "A"}}
	}
	if _, ok := planJoin("p", parity(fld("p", 2)), e.(Product)); ok {
		t.Fatal("planJoin accepted a product wider than maxPlanLeaves")
	}
}

// assertStreamEq evaluates e on the production evaluator and on the
// reference and demands identical outcomes.
func assertStreamEq(t *testing.T, e Expr, db DB) {
	t.Helper()
	st, errSt := NewEvaluator(db, Budget{}).Eval(e)
	mat, errMat := NewReference(db, Budget{}).Eval(e)
	if (errSt == nil) != (errMat == nil) {
		t.Fatalf("error divergence: production %v, reference %v", errSt, errMat)
	}
	if errSt == nil && !value.Equal(st, mat) {
		t.Fatalf("result divergence:\n  production: %v\n  reference:  %v", st, mat)
	}
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	db := DB{"A": rangeSet(10), "B": rangeSet(7), "E": chainSet(8)}
	prod := Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}
	cases := []Expr{
		equiSelect(),
		tcPipelineExpr(),
		// no usable key: a cross join with a re-checked range test
		Select{Of: prod, Var: "p", Test: FCmp{Op: builtin.Lt, L: fld("p", 1), R: fld("p", 2)}},
		// σ over a union of a product and a pair relation
		Select{Of: Union{L: prod, R: Rel{Name: "E"}}, Var: "p",
			Test: FCmp{Op: builtin.Ge, L: fld("p", 2), R: fld("p", 1)}},
		// MAP directly over a product
		Map{Of: prod, Var: "p",
			Out: FArith{Op: builtin.Plus, L: fld("p", 1), R: fld("p", 2)}},
		// empty side
		Select{Of: Product{L: Rel{Name: "A"}, R: Lit{Set: value.Set{}}}, Var: "p",
			Test: FCmp{Op: builtin.Eq, L: fld("p", 1), R: fld("p", 2)}},
		// three-leaf nested product with two keys
		Select{
			Of:  Product{L: Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}, R: Rel{Name: "A"}},
			Var: "p",
			Test: FAnd{
				L: FCmp{Op: builtin.Eq, L: fld("p", 1, 1), R: fld("p", 2)},
				R: FCmp{Op: builtin.Eq, L: fld("p", 1, 2), R: fld("p", 2)},
			},
		},
	}
	for _, e := range cases {
		assertStreamEq(t, e, db)
	}
}

// TestStreamingMatchesMaterializedOnErrors pins the error-deferral policy:
// a pushed conjunct that errors on a leaf element keeps the element, so a
// pair the join forms with it reaches the complete re-check and fails
// there, as the reference's scan of the whole product fails.
func TestStreamingMatchesMaterializedOnErrors(t *testing.T) {
	// B mixes integers with a pair, so p.2 % 2 errors on the pair element,
	// and A holds the same pair, so the join forms a pair with it.
	pair := value.Pair(value.Int(0), value.Int(0))
	b := value.NewSet(value.Int(1), value.Int(2), pair)
	db := DB{"A": value.NewSet(value.Int(0), value.Int(1), value.Int(2), pair), "B": b}
	e := Select{
		Of:  Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var: "p",
		Test: FAnd{
			L: parity(fld("p", 2)),
			R: FCmp{Op: builtin.Eq, L: fld("p", 1), R: fld("p", 2)},
		},
	}
	_, errSt := NewEvaluator(db, Budget{}).Eval(e)
	_, errMat := NewReference(db, Budget{}).Eval(e)
	if errSt == nil || errMat == nil {
		t.Fatalf("production %v, reference %v; want both to fail on a pair's parity", errSt, errMat)
	}
}

// TestStreamingBudgetBoundary pins the one intended divergence class: the
// reference rejects a product whose intermediate size exceeds the budget
// even when the output is small; the join bounds only its output, so it
// succeeds. Both outcomes are ErrBudget-or-success, which the differential
// oracles classify as a skip. A MAP over a bare product is built on both.
func TestStreamingBudgetBoundary(t *testing.T) {
	db := DB{"A": rangeSet(10), "B": rangeSet(10)}
	e := Select{
		Of:   Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var:  "p",
		Test: FCmp{Op: builtin.Lt, L: fld("p", 1), R: fld("p", 2)},
	}
	budget := Budget{MaxSetSize: 50}
	st, errSt := NewEvaluator(db, budget).Eval(e)
	if errSt != nil || st.Len() != 45 {
		t.Fatalf("joined: got %d elements, err %v; want 45, nil", st.Len(), errSt)
	}
	if _, errMat := NewReference(db, budget).Eval(e); !errors.Is(errMat, ErrBudget) {
		t.Fatalf("reference: got %v, want ErrBudget (100-element product over a 50 cap)", errMat)
	}
	// The joined output itself is still bounded:
	if _, err := NewEvaluator(db, Budget{MaxSetSize: 20}).Eval(e); !errors.Is(err, ErrBudget) {
		t.Fatalf("joined over a 20 cap: got %v, want ErrBudget", err)
	}
	// map(product(A, B), \p -> 1) has one element, but its product has 100.
	m := Map{Of: Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}, Var: "p", Out: FConst{V: value.Int(1)}}
	for _, ev := range []*Evaluator{NewEvaluator(db, budget), NewReference(db, budget)} {
		if _, err := ev.Eval(m); !errors.Is(err, ErrBudget) {
			t.Fatalf("map over a 100-element product under a 50 cap (reference %v): got %v, want ErrBudget", ev.ref, err)
		}
	}
}

// streamCounters evaluates e and returns the stream.* counters it reported.
func streamCounters(t *testing.T, e Expr, db DB) obsv.Snapshot {
	t.Helper()
	stats := obsv.NewStats()
	ev := NewEvaluator(db, Budget{})
	ev.SetCollector(stats)
	if _, err := ev.Eval(e); err != nil {
		t.Fatal(err)
	}
	return stats.Snapshot()
}

// TestStreamPushdownCounts pins exact event counts on the A=B={0..9}
// example: with the parity conjunct pushed below the join, only the 5 even
// elements of A probe the hash index and only their 5 matches reach the
// complete test — against 10 tested rows when no conjunct is pushable.
func TestStreamPushdownCounts(t *testing.T) {
	db := DB{"A": rangeSet(10), "B": rangeSet(10)}
	snap := streamCounters(t, equiSelect(), db)
	want := obsv.Snapshot{
		"stream.pipelines": 1,
		"stream.scanned":   20, // both leaves are scanned in full, once
		"stream.pushed":    1,
		"stream.hashJoins": 1,
		"stream.tested":    5, // only even A-elements survive the pushed filter
		"stream.emitted":   5,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d (full snapshot %v)", k, snap[k], v, snap)
		}
	}

	// Same join without the pushable conjunct: every A-element probes, so
	// twice as many rows reach the complete test.
	bare := Select{
		Of:   Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var:  "p",
		Test: FCmp{Op: builtin.Eq, L: fld("p", 1), R: fld("p", 2)},
	}
	snapBare := streamCounters(t, bare, db)
	if snapBare["stream.tested"] != 10 || snapBare["stream.pushed"] != 0 {
		t.Errorf("unpushed join: tested %d pushed %d, want 10 and 0 (snapshot %v)",
			snapBare["stream.tested"], snapBare["stream.pushed"], snapBare)
	}
	if snap["stream.tested"] >= snapBare["stream.tested"] {
		t.Errorf("pushdown did not reduce tested rows: %d vs %d",
			snap["stream.tested"], snapBare["stream.tested"])
	}

	// σ over a ∪ of two products is the ∪ of two joins: each branch reads
	// its two leaves once, 40 rows in all, not the 200 pairs of A×B and B×A.
	both := Select{
		Of:   Union{L: Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}, R: Product{L: Rel{Name: "B"}, R: Rel{Name: "A"}}},
		Var:  "p",
		Test: FCmp{Op: builtin.Eq, L: fld("p", 1), R: fld("p", 2)},
	}
	assertStreamEq(t, both, db)
	snapBoth := streamCounters(t, both, db)
	for k, v := range map[string]int64{"stream.pipelines": 2, "stream.scanned": 40, "stream.hashJoins": 2, "stream.tested": 20, "stream.emitted": 20} {
		if snapBoth[k] != v {
			t.Errorf("σ over a union of products: %s = %d, want %d (snapshot %v)", k, snapBoth[k], v, snapBoth)
		}
	}

	// The reference reports no pipeline events at all.
	stats := obsv.NewStats()
	ev := NewReference(db, Budget{})
	ev.SetCollector(stats)
	if _, err := ev.Eval(equiSelect()); err != nil {
		t.Fatal(err)
	}
	if n := stats.Snapshot()["stream.pipelines"]; n != 0 {
		t.Errorf("the reference still reported %d pipelines", n)
	}
}

// TestJoinInternsNothing: a keyed join that sorts a copy of its leaf leaves
// the process-wide interner as it found it, even on fresh join keys.
func TestJoinInternsNothing(t *testing.T) {
	prefix := fmt.Sprintf("join-key-%d-", time.Now().UnixNano())
	l := value.NewSetBuilder(200)
	r := value.NewSetBuilder(200)
	for i := 0; i < 200; i++ {
		key := value.String(prefix + strconv.Itoa(i))
		l.Add(value.Pair(value.Int(int64(i)), key))
		r.Add(value.Pair(value.Int(int64(-i)), key))
	}
	db := DB{"l": l.Set(), "r": r.Set()}
	// The key is each leaf's second component, so no step can probe a leaf's
	// own order.
	e := Select{
		Of:   Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}},
		Var:  "p",
		Test: FCmp{Op: builtin.Eq, L: fld("p", 1, 2), R: fld("p", 2, 2)},
	}
	before := intern.Global().Len()
	snap := streamCounters(t, e, db)
	if grew := intern.Global().Len() - before; grew != 0 {
		t.Errorf("the join interned %d values", grew)
	}
	if snap["stream.hashJoins"] != 1 || snap["stream.emitted"] != 200 {
		t.Errorf("want one sorted copy and 200 joined pairs, got %v", snap)
	}
}
