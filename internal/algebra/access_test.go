package algebra_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

func mustExpr(t *testing.T, src string) algebra.Expr {
	t.Helper()
	e, err := parse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func ints(xs ...int) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.Int(int64(x))
	}
	return out
}

func tup(xs ...int) value.Value { return value.NewTuple(ints(xs...)...) }

// evalCounted evaluates src over db on the planned path, returning the
// outcome and the stream.* counters it reported.
func evalCounted(t *testing.T, src string, db algebra.DB) (value.Set, error, obsv.Snapshot) {
	t.Helper()
	stats := obsv.NewStats()
	ev := algebra.NewEvaluator(db, algebra.Budget{})
	ev.SetCollector(stats)
	out, err := ev.Eval(mustExpr(t, src))
	return out, err, stats.Snapshot()
}

// TestAccessPathsMatchScan is the exactness table: every point-select shape —
// the ones a prefix probe answers and every fallback — returns the same
// value or the same error as the scan-everything reference path
// (algebra.NewReference), and probes exactly when the table says so.
func TestAccessPathsMatchScan(t *testing.T) {
	pairs := value.NewSet(tup(1, 1), tup(1, 2), tup(1, 3), tup(2, 1), tup(2, 5), tup(4, 4), tup(4, 5))
	big := make([]string, 20)
	for i := range big {
		big[i] = fmt.Sprint(i)
	}
	db := algebra.DB{
		"e":      pairs,
		"empty":  value.EmptySet,
		"scalar": pairs.Insert(value.Int(7)),                   // sorts before every tuple
		"unit":   pairs.Insert(value.NewTuple()),               // the empty tuple: .1 does not apply
		"nested": pairs.Insert(value.NewSet(value.Int(1))),     // sorts after every tuple
		"short":  pairs.Insert(tup(2)),                         // .2 fails inside the range of 2 only
		"wide":   pairs.Insert(tup(1, 2, 3)).Insert(tup(3, 0)), // mixed widths, all of them >= 2
		"mixed":  pairs.Insert(value.Pair(value.String("a"), value.Int(1))),
	}
	cases := []struct {
		src   string
		probe bool
	}{
		// answered from the sorted order
		{`select(e, \p -> p.1 = 1)`, true},
		{`select(e, \p -> 2 = p.1)`, true},
		{`select(e, \p -> p.1 = 3)`, true}, // absent key
		{`select(e, \p -> p.1 = a)`, true}, // key of another kind
		{`select(mixed, \p -> p.1 = a)`, true},
		{`select(e, \p -> p.1 = 1 and p.2 = 2)`, true},
		{`select(e, \p -> p.1 = 1 and p.2 = 9)`, true},
		{`select(e, \p -> (p.1 = 4 and p.2 = 5) and p.2 > 1)`, true},
		{`select(e, \p -> p.1 = 1 and (p.2 > 1 and p.2 < 3))`, true},
		{`select(e, \p -> p.1 in {1, 4})`, true},
		{`select(e, \p -> p.1 in {})`, true},
		{`select(e, \p -> p.1 in {1, 4, 9} and p.2 = 5)`, true},
		{`select(e, \p -> p.1 in {2, 4} and p.2 in {1, 5})`, true},
		{`select(e, \p -> p.1 = 2 and p.2 mod 2 = 1)`, true},
		{`select(wide, \p -> p.1 = 1 and p.2 = 2)`, true},
		{`select(wide, \p -> p.1 = 1 and p.2 = 2 and p.3 = 3)`, true}, // .3 fails on (1, 2): same error from the candidates
		{`select(e, \p -> p.1 = 1 and p.3 = 1)`, true},                // only the prefix is consumed; .3 errors on the candidates
		{`select(e, \p -> p.1 = 3 and p.3 = 1)`, true},                // no candidate, no error
		{`select(e, \p -> p.1 = 1 and p.2)`, true},                    // a non-boolean conjunct errors as in the scan
		{`select(short, \p -> p.1 = 1 and p.2 = 2)`, true},            // the range of 1 holds pairs only
		{`select(short, \p -> p.1 = 2 and p.2 = 1)`, true},            // probes .1, then .2 errors on (2) as in the scan
		{`select(short, \p -> p.1 in {1, 2} and p.2 = 1)`, true},
		{`select(union(e, {(9, 9)}), \p -> p.1 = 9)`, true},
		{`map(select(e, \p -> p.1 = 2), \p -> p.2)`, true},
		// fallbacks: the scan, with whatever it raises
		{`select(e, \p -> p.2 = 1 and p.1 = 1)`, false}, // evaluation order
		{`select(e, \p -> p.2 = 1)`, false},
		{`select(e, \p -> p.1 != 1)`, false},
		{`select(e, \p -> p.1 < 2)`, false},
		{`select(e, \p -> not (p.1 = 1))`, false},
		{`select(e, \p -> p.1 = 1 or p.1 = 2)`, false},
		{`select(e, \p -> p.1 = p.2)`, false},
		{`select(e, \p -> p.1 + 0 = 1)`, false},
		{`select(e, \p -> p.1.1 = 1)`, false},
		{`select(e, \p -> p.1 in 5)`, false},
		{`select(e, \p -> p.1 in {` + strings.Join(big, ", ") + `})`, false}, // more keys than rows
		{`select(e, \p -> p = (1, 1))`, false},
		{`select(empty, \p -> p.1 = 1)`, false},
		{`select(scalar, \p -> p.1 = 1)`, false},
		{`select(unit, \p -> p.1 = 1)`, false},
		{`select(nested, \p -> p.1 = 1)`, false},
		{`select({1, 2, 3}, \p -> p.1 = 1)`, false},
	}
	for _, c := range cases {
		got, errGot, snap := evalCounted(t, c.src, db)
		want, errWant := algebra.NewReference(db, algebra.Budget{}).Eval(mustExpr(t, c.src))
		switch {
		case (errGot == nil) != (errWant == nil), errGot != nil && errGot.Error() != errWant.Error():
			t.Errorf("%s:\n  planned: %v\n  scan:    %v", c.src, errGot, errWant)
		case errGot == nil && !value.Equal(got, want):
			t.Errorf("%s:\n  planned: %v\n  scan:    %v", c.src, got, want)
		}
		// A plain selection reports an event only when a probe answered it
		// (and, like every pipeline, only when it succeeded).
		if probed := snap["stream.pipelines"] > 0; errGot == nil && probed != c.probe {
			t.Errorf("%s: probed = %v, want %v (counters %v)", c.src, probed, c.probe, snap)
		}
	}
}

// TestJoinAccessPathsMatchScan pins the join-side access paths against the
// reference path on leaves of irregular shape: a pushed constant conjunct
// narrows a leaf by range only when .1 applies to all of it, and a join key
// on the leading components reads the sorted order only when every element
// has them — otherwise the hash index and its loose bucket decide, as before.
func TestJoinAccessPathsMatchScan(t *testing.T) {
	e := value.NewSet(tup(1, 2), tup(1, 3), tup(2, 3), tup(3, 1), tup(3, 4))
	db := algebra.DB{
		"e":      e,
		"f":      value.NewSet(tup(2, 9), tup(3, 7), tup(3, 8), tup(5, 5)),
		"scalar": e.Insert(value.Int(0)),
		"short":  e.Insert(tup(3)),
		"wide":   e.Insert(tup(3, 1, 0)),
	}
	for _, src := range []string{
		`select(product(e, f), \p -> p.1.2 = p.2.1)`,
		`select(product(e, f), \p -> p.1.2 = p.2.1 and p.1.1 = 1)`,
		`select(product(e, f), \p -> p.1.1 = 1 and p.1.2 = p.2.1 and p.2.2 > 7)`,
		`select(product(e, f), \p -> p.1.1 in {1, 2} and p.1.2 = 3 and p.1.2 = p.2.1)`,
		`select(product(select(e, \q -> q.1 = 1), f), \p -> p.1.2 = p.2.1)`,
		`map(select(product(e, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`,
		`select(product(product(e, e), e), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1 and p.2.2 = p.1.1.1)`,
		`select(product(product(e, e), wide), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1 and p.2.2 = p.1.1.1)`,
		`select(product(product(e, e), short), \p -> p.1.1.2 = p.1.2.1 and p.2.2 = p.1.1.1 and p.1.2.2 = p.2.1)`,
		`select(product(e, scalar), \p -> p.1.2 = p.2.1)`,
		`select(product(e, short), \p -> p.1.2 = p.2.1)`,
		`select(product(e, short), \p -> p.1.2 = p.2.1 and p.1.1 = p.2.2)`,
		`select(product(scalar, f), \p -> p.1.1 = 1 and p.1.2 = p.2.1)`,
		`select(product(e, f), \p -> p.1.2 = p.2.1 and p.2.1 = 3 and p.2.2 = 8)`,
	} {
		got, errGot, _ := evalCounted(t, src, db)
		want, errWant := algebra.NewReference(db, algebra.Budget{}).Eval(mustExpr(t, src))
		if (errGot == nil) != (errWant == nil) {
			t.Errorf("%s:\n  planned: %v\n  scan:    %v", src, errGot, errWant)
		} else if errGot == nil && !value.Equal(got, want) {
			t.Errorf("%s:\n  planned: %v\n  scan:    %v", src, got, want)
		}
	}
}

// ringGraph returns the 2n-edge graph in which node i points at i+1 and i+7
// (mod n): every node has exactly two successors.
func ringGraph(n int) value.Set {
	b := value.NewSetBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.Add(tup(i, (i+1)%n))
		b.Add(tup(i, (i+7)%n))
	}
	return b.Set()
}

// TestPointQueryCounts pins, on a 1 000-edge graph, what the three point
// shapes of the benchmark's adhoc-point workload read: rows in proportion to
// their results, not to the relation, and no hash index.
func TestPointQueryCounts(t *testing.T) {
	db := algebra.DB{"e": ringGraph(500)}
	cases := []struct {
		name, src string
		result    int64
		want      obsv.Snapshot
	}{
		{"pt-out", `select(e, \p -> p.1 = 10)`, 2, obsv.Snapshot{
			"stream.pipelines": 1, "stream.probes": 1, "stream.scanned": 2, "stream.emitted": 2,
		}},
		// The inner select probes once and reads node 10's two edges; the
		// pipeline scans those two and probes e once for each.
		{"pt-2hop", `map(select(product(select(e, \p -> p.1 = 10), e), \p -> p.1.2 = p.2.1), \p -> p.2.2)`, 3, obsv.Snapshot{
			"stream.pipelines": 2, "stream.probes": 3, "stream.scanned": 2 + 2 + 4, "stream.tested": 4, "stream.emitted": 2 + 4,
		}},
		// Four rounds: the empty round 0 reads nothing; rounds 1 and 2 scan a
		// delta of 1 and 2 rows and probe e once per row; round 3 scans the 3
		// rows at depth 2, which the pushed depth bound rejects.
		{"pt-ifp", `ifp(s, union({(10, 0)}, map(select(product(s, e), \p -> p.1.1 = p.2.1 and p.1.2 < 2), \p -> (p.2.2, p.1.2 + 1))))`, 6, obsv.Snapshot{
			"stream.pipelines": 4, "stream.probes": 3, "stream.scanned": (1 + 2) + (2 + 4) + 3, "stream.tested": 6, "stream.emitted": 6, "stream.pushed": 3,
		}},
	}
	for _, c := range cases {
		out, err, snap := evalCounted(t, c.src, db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if int64(out.Len()) != c.result {
			t.Errorf("%s: %d results, want %d", c.name, out.Len(), c.result)
		}
		for _, k := range []string{"stream.pipelines", "stream.probes", "stream.scanned", "stream.tested", "stream.emitted", "stream.pushed", "stream.hashJoins"} {
			if snap[k] != c.want[k] {
				t.Errorf("%s: %s = %d, want %d (counters %v)", c.name, k, snap[k], c.want[k], snap)
			}
		}
		if snap["stream.scanned"] > 4*c.result {
			t.Errorf("%s: read %d rows for %d results", c.name, snap["stream.scanned"], c.result)
		}
	}
}

// diffElem draws an element from a domain small enough that random sets
// overlap and random pairs land in random products: scalars of two kinds,
// pairs of those and of pairs (what product(product(a, b), c) holds), the
// empty tuple and 3-tuples, and sets.
func diffElem(r *rand.Rand, depth int) value.Value {
	switch k := r.Intn(10); {
	case k < 3 || depth == 0:
		if r.Intn(4) == 0 {
			return value.String([]string{"a", "b"}[r.Intn(2)])
		}
		return value.Int(int64(r.Intn(3)))
	case k < 8:
		return value.Pair(diffElem(r, depth-1), diffElem(r, depth-1))
	case k == 8:
		if r.Intn(2) == 0 {
			return value.NewTuple()
		}
		return value.NewTuple(diffElem(r, depth-1), diffElem(r, depth-1), diffElem(r, 0))
	default:
		return value.NewSet(diffElem(r, depth-1))
	}
}

func diffSet(r *rand.Rand, n, depth int) value.Set {
	b := value.NewSetBuilder(n)
	for i := r.Intn(n + 1); i > 0; i-- {
		b.Add(diffElem(r, depth))
	}
	return b.Set()
}

// TestPropertyDiffProbesLikeItMaterializes: over random heterogeneous sets,
// for every shape of ∪/× spine, filtering the minuend by lookups gives the set
// — equal and rendered identically — that building the subtrahend and merging
// against it gives, and never the other way round.
func TestPropertyDiffProbesLikeItMaterializes(t *testing.T) {
	spines := []string{
		`product(a, b)`,
		`product(product(a, b), c)`,
		`product(a, product(b, c))`,
		`union(product(a, b), product(c, a))`,
		`union(c, product(a, b))`,
		`product(union(a, c), b)`,
		`product(a, diff(b, product(c, c)))`,
		`union(product(a, {}), product(b, {0, (0, 1)}))`,
		`product(map(a, \x -> (x, x)), select(b, \x -> x = x))`,
	}
	r := rand.New(rand.NewSource(22))
	removed := 0
	for i := 0; i < 400; i++ {
		db := algebra.DB{"a": diffSet(r, 4, 1), "b": diffSet(r, 4, 1), "c": diffSet(r, 4, 1)}
		spine := spines[i%len(spines)]
		// The minuend: random elements beside a random half of the subtrahend's
		// and near misses of the other half — a pair widened, narrowed, swapped.
		sub, err := algebra.NewReference(db, algebra.Budget{}).Eval(mustExpr(t, spine))
		if err != nil {
			t.Fatalf("%s: %v", spine, err)
		}
		l := value.NewSetBuilder(0)
		for j := 0; j < sub.Len(); j++ {
			if r.Intn(2) == 0 {
				l.Add(sub.At(j))
			} else if p, ok := sub.At(j).(value.Tuple); ok && p.Len() == 2 {
				l.Add(value.NewTuple(p.At(0), p.At(1), p.At(1)))
				l.Add(value.NewTuple(p.At(0)))
				l.Add(value.Pair(p.At(1), p.At(0)))
			}
		}
		db["l"] = l.Set().Union(diffSet(r, 20, 3))

		src := "diff(l, " + spine + ")"
		got, err, snap := evalCounted(t, src, db)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := db["l"].Diff(sub)
		if !value.Equal(got, want) || got.String() != want.String() {
			t.Fatalf("%s over %v:\n  probing:      %v\n  materialized: %v", src, db, got, want)
		}
		// (the nested difference of one spine probes too)
		if snap["diff.paths.materialized"] != 0 || snap["diff.probed"] < int64(db["l"].Len()) || snap["diff.kept"] < int64(got.Len()) {
			t.Fatalf("%s: counters %v", src, snap)
		}
		if got.Len() < db["l"].Len() {
			removed++
		}
	}
	if removed < 200 {
		t.Errorf("only %d of 400 instances subtracted anything: the generator no longer reaches the spine", removed)
	}
}

// TestDiffPathAndErrors pins which differences probe, and that a subtrahend
// leaf that raises, raises on both paths, in the same order, whether or not
// the minuend holds anything.
func TestDiffPathAndErrors(t *testing.T) {
	db := algebra.DB{"e": value.NewSet(tup(1, 2), tup(2, 3), value.Int(5)), "none": value.EmptySet}
	cases := []struct {
		src    string
		probes bool
	}{
		{`diff(e, product({1}, {2}))`, true},
		{`diff(e, union({5}, product({1, 2}, {2, 3})))`, true},
		{`diff(none, product(e, e))`, true},
		{`diff(e, e)`, false},
		{`diff(e, union(e, {5}))`, false},
		{`diff(e, map(product({1}, {2}), \x -> x))`, false}, // a MAP is a leaf: its product is the pipeline's
		{`diff(product(e, e), e)`, false},                   // the minuend's product is built
		// errors: the leaf that raises first decides, also under an empty minuend
		{`diff(none, product(map(e, \x -> x.1), e))`, true},
		{`diff(none, product(e, nosuch))`, true},
		{`diff(e, product(map(e, \x -> x.1), nosuch))`, true},
		{`diff(nosuch, product(map(e, \x -> x.1), e))`, true},
	}
	for _, c := range cases {
		got, errGot, snap := evalCounted(t, c.src, db)
		want, errWant := algebra.NewReference(db, algebra.Budget{}).Eval(mustExpr(t, c.src))
		switch {
		case (errGot == nil) != (errWant == nil), errGot != nil && errGot.Error() != errWant.Error():
			t.Errorf("%s:\n  production: %v\n  reference:  %v", c.src, errGot, errWant)
		case errGot == nil && !value.Equal(got, want):
			t.Errorf("%s:\n  production: %v\n  reference:  %v", c.src, got, want)
		}
		if errGot == nil && (snap["diff.evals"] != 1 || (snap["diff.paths.probing"] == 1) != c.probes) {
			t.Errorf("%s: probes = %v, want %v (counters %v)", c.src, !c.probes, c.probes, snap)
		}
	}
}
