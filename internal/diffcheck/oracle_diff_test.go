package diffcheck

import (
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/obsv"
	"algrec/internal/randgen"
	"algrec/internal/value"
)

// probing runs f under a counting collector and returns how many differences
// it evaluated by probing. The collector is process-wide: callers are
// top-level, sequential tests.
func probing(f func()) int64 {
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	defer obsv.SetDefault(prev)
	f()
	return stats.Snapshot()["diff.paths.probing"]
}

// cyclicGame is Example 3 on a MOVE relation with two cycles: positions 1 and
// 2 can only ever hand each other the move, and 6 only itself.
const cyclicGame = `
	rel e = {(1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (6, 6), (7, 6), (7, 5)};
	def win = map(diff(e, product(map(e, \x -> x.1), win)), \x -> x.1);`

// TestDiffProbingInstances pins the probing difference against the
// materializing reference on the shapes its spine walk distinguishes, at both
// polarities where the script defines constants: every query through
// expr-stream (scripts without definitions) or through QueryLower/QueryUpper
// of both evaluations, every program through core-valid. Each instance must
// actually probe.
func TestDiffProbingInstances(t *testing.T) {
	cases := []struct{ name, src string }{
		{"heterogeneous-minuend", `
			rel l = {1, a, (1, 2), (2, 1), (1, 2, 3), (1, (2, 3)), ((1, 2), 3), (), {1}, {(1, 2)}};
			rel a = {1, 2, (1, 2)}; rel b = {1, 2, 3, (2, 3)};
			query diff(l, product(a, b));`},
		{"product-of-product", `
			rel l = {((1, 2), 3), (1, (2, 3)), (1, 2, 3), ((1, 2), 4), ((2, 2), 3), (1, 2)};
			rel a = {1}; rel b = {2}; rel c = {3};
			query diff(l, product(product(a, b), c));
			query diff(l, product(a, product(b, c)));`},
		{"union-of-products", `
			rel l = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), 3};
			rel a = {1}; rel b = {2}; rel c = {3};
			query diff(l, union(product(a, b), product(b, a)));
			query diff(l, union(union(c, product(a, a)), product(b, b)));`},
		{"nested-diff-factor", `
			rel l = {(1, 1), (1, 2), (1, 3), (2, 3)};
			rel a = {1, 2}; rel b = {1, 2, 3}; rel c = {(2, 2), (3, 3)};
			query diff(l, product(a, diff(b, map(c, \x -> x.1))));
			query diff(l, product(a, diff(b, map(diff(c, product(b, {3})), \x -> x.1))));`},
		{"constant-on-both-sides", `
			rel e = {(1, 2), (2, 3), (3, 4), (4, 4), (5, 1)};
			def s = map(diff(e, product(s, s)), \x -> x.1);
			def t = map(diff(e, product(map(e, \x -> x.1), flip(t))), \x -> x.2);
			query s; query diff(e, product(s, t)); query diff(e, product(t, diff(s, t)));`},
		{"cyclic-game", cyclicGame + `query win; query diff(e, product(win, win));`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := parse.ParseScript(c.src)
			if err != nil {
				t.Fatal(err)
			}
			probed := probing(func() {
				if len(sc.Program.Defs) == 0 {
					for _, q := range sc.Queries {
						if err := checkExprStream(q.Expr, sc.DB); err != nil {
							t.Errorf("%s: %v", q.Src, err)
						}
					}
					return
				}
				if err := checkCoreValid(sc.Program, sc.DB); err != nil {
					t.Error(err)
				}
				prod, errP := core.EvalValid(sc.Program, sc.DB, ExprBudget)
				ref, errR := core.EvalValid(sc.Program, sc.DB, noStreaming(ExprBudget))
				if errP != nil || errR != nil {
					t.Fatalf("production: %v, reference: %v", errP, errR)
				}
				for _, q := range sc.Queries {
					for _, side := range []struct {
						name string
						eval func(*core.Result, algebra.Expr) (value.Set, error)
					}{{"lower", (*core.Result).QueryLower}, {"upper", (*core.Result).QueryUpper}} {
						got, errP := side.eval(prod, q.Expr)
						want, errR := side.eval(ref, q.Expr)
						if errP != nil || errR != nil {
							t.Fatalf("%s %s: production: %v, reference: %v", q.Src, side.name, errP, errR)
						}
						if err := diffSets("core-valid", q.Src+" "+side.name, got, want); err != nil {
							t.Error(err)
						}
					}
				}
			})
			if probed == 0 {
				t.Error("no difference took the probing path")
			}
		})
	}
}

// TestCyclicGameIsPartlyUndefined keeps the cyclic instance above honest: its
// possible part is strictly larger than its certain part, so comparing both
// bounds there compares two different sets.
func TestCyclicGameIsPartlyUndefined(t *testing.T) {
	sc := parse.MustParseScript(cyclicGame)
	res, err := core.EvalValid(sc.Program, sc.DB, ExprBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.UndefElems("win").IsEmpty() || res.Lower["win"].IsEmpty() {
		t.Errorf("WIN = %v certain, %v undefined: want both non-empty", res.Lower["win"], res.UndefElems("win"))
	}
}

// TestDiffLeafErrorsSurfaceOnBothPaths: a subtrahend leaf that raises does so
// on the probing path as on the reference — with the same message — even when
// the minuend is empty and no element would ever be looked up in it. (The
// two-valued evaluator's messages are compared by the algebra package's
// TestDiffPathAndErrors; here the oracle and the dual evaluator.)
func TestDiffLeafErrorsSurfaceOnBothPaths(t *testing.T) {
	db := algebra.DB{"none": value.EmptySet, "e": value.NewSet(value.Int(1), value.Pair(value.Int(1), value.Int(2)))}
	for _, src := range []string{
		`diff(none, product(e, map(e, \x -> x.1)))`,
		`diff(none, union(product(e, e), select(e, \x -> x.2 = 2)))`,
		`diff(e, product(map(e, \x -> x.1), e))`,
	} {
		e, err := parse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkExprStream(e, db); err != nil {
			t.Errorf("%s: %v", src, err)
		}
		p := &core.Program{Defs: []core.Def{{Name: "d", Body: e}}}
		_, errP := core.EvalValid(p, db, ExprBudget)
		_, errR := core.EvalValid(p, db, noStreaming(ExprBudget))
		if errP == nil || errR == nil || errP.Error() != errR.Error() {
			t.Errorf("def d = %s:\n  production: %v\n  reference:  %v", src, errP, errR)
		}
	}
}

// TestGeneratorReachesProbingDiff: the random sweeps and fuzz targets only pin
// the probing path if the generator draws differences over products; of the
// first 2 000 instances of each oracle at the sweep sizes, at least 10 must.
func TestGeneratorReachesProbingDiff(t *testing.T) {
	for _, name := range []string{"expr-stream", "core-valid"} {
		o, _ := ByName(name)
		reached := 0
		for seed := int64(0); seed < 2000; seed++ {
			in := Generate(o, randgen.New(seed, randgen.Config{Size: 1 + int(seed%4)}))
			var err error
			if probing(func() { err = in.Check() }) > 0 {
				reached++
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v\ninstance:\n%s", name, seed, err, in.Render())
			}
		}
		t.Logf("%s: %d of 2000 instances probe", name, reached)
		if reached < 10 {
			t.Errorf("%s: only %d of 2000 instances take the probing path", name, reached)
		}
	}
}

// TestProbingBudgetBoundary is the one place outcomes may differ: the
// reference exhausts MaxSetSize on a product the production path never builds,
// and the oracle skips the pair.
func TestProbingBudgetBoundary(t *testing.T) {
	var ns []string
	for i := 0; i < 400; i++ {
		ns = append(ns, value.Int(int64(i)).String())
	}
	n := "{" + strings.Join(ns, ", ") + "}"
	e, err := parse.ParseExpr(`diff({(1, 2), (1, 400)}, product(` + n + `, ` + n + `))`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.NewEvaluator(algebra.DB{}, ExprBudget).Eval(e)
	if err != nil || got.Len() != 1 {
		t.Errorf("production: %v, %v; want the one pair outside the product", got, err)
	}
	if _, err := algebra.NewEvaluator(algebra.DB{}, noStreaming(ExprBudget)).Eval(e); !skippable(err) {
		t.Errorf("reference: %v, want a budget error", err)
	}
	if err := checkExprStream(e, algebra.DB{}); err != nil {
		t.Errorf("the oracle does not skip the boundary: %v", err)
	}
}
