package algebra

import (
	"errors"
	"strings"
	"testing"

	"algrec/internal/obsv"
	"algrec/internal/value"
)

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
	return FCmp{Op: OpEq,
		L: FArith{Op: OpMod, L: e, R: FConst{V: value.Int(2)}},
		R: FConst{V: value.Int(0)}}
}

// equiSelect is the pinned pushdown example: σ_{p.1%2=0 ∧ p.1=p.2}(A×B).
func equiSelect() Expr {
	return Select{
		Of:  Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var: "p",
		Test: FAnd{
			L: parity(fld("p", 1)),
			R: FCmp{Op: OpEq, L: fld("p", 1), R: fld("p", 2)},
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
				Test: FCmp{Op: OpEq, L: fld("u", 1, 2), R: fld("u", 2, 1)},
			},
			Var: "w",
			Out: FTuple{Elems: []FExpr{fld("w", 1, 1), fld("w", 2, 2)}},
		},
	}}
}

func TestStreamEligible(t *testing.T) {
	prod := Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}
	cases := []struct {
		e    Expr
		want bool
	}{
		{equiSelect(), true},
		{Select{Of: Rel{Name: "A"}, Var: "p", Test: parity(FVar{Name: "p"})}, false},
		{Map{Of: prod, Var: "p", Out: fld("p", 1)}, true},
		{Map{Of: Rel{Name: "E"}, Var: "p", Out: fld("p", 1)}, false},
		{prod, false}, // bare products stay materialized: no σ/MAP entry point
		{Select{Of: Union{L: prod, R: Rel{Name: "E"}}, Var: "p", Test: parity(fld("p", 1))}, true},
		{Select{Of: Diff{L: prod, R: Rel{Name: "E"}}, Var: "p", Test: parity(fld("p", 1))}, false},
		{tcPipelineExpr(), false}, // the IFP is not a spine; its body streams internally
	}
	for i, c := range cases {
		if got := streamEligible(c.e); got != c.want {
			t.Errorf("case %d: streamEligible = %v, want %v", i, got, c.want)
		}
	}
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
	// and the other leaf is bound by a one-key hash join.
	want := "scan leaf 0 [1 pushed filter(s)] est=1.0\nhash-join leaf 1 on 1 key(s) est=10.0\n"
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
	if _, ok := planJoin("", nil, e.(Product)); ok {
		t.Fatal("planJoin accepted a product wider than maxPlanLeaves")
	}
}

// assertStreamEq evaluates e with the streaming runtime on and off and
// demands identical outcomes.
func assertStreamEq(t *testing.T, e Expr, db DB) {
	t.Helper()
	st, errSt := NewEvaluator(db, Budget{}).Eval(e)
	mat, errMat := NewReference(db, Budget{}).Eval(e)
	if (errSt == nil) != (errMat == nil) {
		t.Fatalf("error divergence: streaming %v, materialized %v", errSt, errMat)
	}
	if errSt == nil && !value.Equal(st, mat) {
		t.Fatalf("result divergence:\n  streaming:    %v\n  materialized: %v", st, mat)
	}
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	db := DB{"A": rangeSet(10), "B": rangeSet(7), "E": chainSet(8)}
	prod := Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}
	cases := []Expr{
		equiSelect(),
		tcPipelineExpr(),
		// no usable key: pure streamed cross with a re-checked range test
		Select{Of: prod, Var: "p", Test: FCmp{Op: OpLt, L: fld("p", 1), R: fld("p", 2)}},
		// σ over a union of a product and a pair relation
		Select{Of: Union{L: prod, R: Rel{Name: "E"}}, Var: "p",
			Test: FCmp{Op: OpGe, L: fld("p", 2), R: fld("p", 1)}},
		// MAP directly over a product
		Map{Of: prod, Var: "p",
			Out: FArith{Op: OpPlus, L: fld("p", 1), R: fld("p", 2)}},
		// empty side
		Select{Of: Product{L: Rel{Name: "A"}, R: Lit{Set: value.Set{}}}, Var: "p",
			Test: FCmp{Op: OpEq, L: fld("p", 1), R: fld("p", 2)}},
		// three-leaf nested product with two keys
		Select{
			Of:  Product{L: Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}}, R: Rel{Name: "A"}},
			Var: "p",
			Test: FAnd{
				L: FCmp{Op: OpEq, L: fld("p", 1, 1), R: fld("p", 2)},
				R: FCmp{Op: OpEq, L: fld("p", 1, 2), R: fld("p", 2)},
			},
		},
	}
	for _, e := range cases {
		assertStreamEq(t, e, db)
	}
}

// TestStreamingMatchesMaterializedOnErrors pins the error-deferral policy:
// a pushed conjunct that errors on a leaf element keeps the element, so a
// pair the pipeline forms with it reaches the complete re-check and fails
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
			R: FCmp{Op: OpEq, L: fld("p", 1), R: fld("p", 2)},
		},
	}
	_, errSt := NewEvaluator(db, Budget{}).Eval(e)
	_, errMat := NewReference(db, Budget{}).Eval(e)
	if errSt == nil || errMat == nil {
		t.Fatalf("streaming %v, materialized %v; want both to fail on a pair's parity", errSt, errMat)
	}
}

// TestStreamingBudgetBoundary pins the one intended divergence class: the
// materialized path rejects a product whose intermediate size exceeds the
// budget even when the output is small; the streaming path bounds only the
// collected output, so it succeeds. Both outcomes are ErrBudget-or-success,
// which the differential oracles classify as a skip.
func TestStreamingBudgetBoundary(t *testing.T) {
	db := DB{"A": rangeSet(10), "B": rangeSet(10)}
	e := Select{
		Of:   Product{L: Rel{Name: "A"}, R: Rel{Name: "B"}},
		Var:  "p",
		Test: FCmp{Op: OpLt, L: fld("p", 1), R: fld("p", 2)},
	}
	budget := Budget{MaxSetSize: 50}
	st, errSt := NewEvaluator(db, budget).Eval(e)
	if errSt != nil || st.Len() != 45 {
		t.Fatalf("streaming: got %d elements, err %v; want 45, nil", st.Len(), errSt)
	}
	if _, errMat := NewReference(db, budget).Eval(e); !errors.Is(errMat, ErrBudget) {
		t.Fatalf("materialized: got %v, want ErrBudget (100-element product over a 50 cap)", errMat)
	}
	// The streamed output itself is still bounded:
	budget = Budget{MaxSetSize: 20}
	if _, err := NewEvaluator(db, budget).Eval(e); !errors.Is(err, ErrBudget) {
		t.Fatalf("streaming over a 20 cap: got %v, want ErrBudget", err)
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
		Test: FCmp{Op: OpEq, L: fld("p", 1), R: fld("p", 2)},
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
