package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// gameGraph draws a MOVE relation the way the benchmark's w300 is drawn: a
// random digraph of average out-degree 2 on the first nodes-chain nodes and,
// beside it, a simple path over the last chain nodes, which pins the depth of
// the backward induction — and so the Γ rounds of WIN — whatever the seed.
func gameGraph(seed int64, nodes, chain int) value.Set {
	r := rand.New(rand.NewSource(seed))
	b := value.NewSetBuilder(2*nodes - chain)
	for i, n := 0, nodes-chain; i < 2*n; i++ {
		if from, to := r.Intn(n), r.Intn(n); from != to {
			b.Add(value.Pair(value.Int(int64(from)), value.Int(int64(to))))
		}
	}
	for v := nodes - chain; v+1 < nodes; v++ {
		b.Add(value.Pair(value.Int(int64(v)), value.Int(int64(v+1))))
	}
	return b.Set()
}

// TestEqWinNeverBuildsTheProduct: Example 3 on a 300-node game succeeds with
// no room for any set larger than twice MOVE — so π1 MOVE × WIN, tens of
// thousands of pairs in the later rounds, was never built — and computes what
// the materializing reference computes when it is given the room.
func TestEqWinNeverBuildsTheProduct(t *testing.T) {
	move := gameGraph(1, 300, 30)
	db := algebra.DB{"move": move}
	tight := algebra.Budget{MaxSetSize: 2 * move.Len()}

	got, err := EvalValid(winProgram(), db, tight)
	if err != nil {
		t.Fatalf("under MaxSetSize %d: %v", tight.MaxSetSize, err)
	}
	want, err := Eval(algebra.NewReference, winProgram(), db, algebra.Budget{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(got.Lower, want.Lower) || !sameSets(got.Upper, want.Upper) {
		t.Errorf("probing and materialized WIN differ:\n  lower %v / %v\n  upper %v / %v", got.Lower["win"], want.Lower["win"], got.Upper["win"], want.Upper["win"])
	}
	if n := got.Lower["win"].Len(); n == 0 || n*move.Len() <= tight.MaxSetSize {
		t.Fatalf("|WIN| = %d: the game is too small to witness anything", n)
	}
	if _, err := Eval(algebra.NewReference, winProgram(), db, tight, false); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("the reference under MaxSetSize %d: %v, want ErrBudget", tight.MaxSetSize, err)
	}
}

// TestEqWinDiffCounts pins what one evaluation of WIN's body costs: every
// edge of MOVE is probed once, with at most two lookups — its source in
// π1 MOVE, its target in WIN — and the totals repeat exactly.
func TestEqWinDiffCounts(t *testing.T) {
	move := gameGraph(1, 300, 30)
	db := algebra.DB{"move": move}
	stats := obsv.NewStats()
	obsv.SetDefault(stats)
	defer obsv.SetDefault(nil)

	run := func() obsv.Snapshot {
		before := stats.Snapshot()
		if _, err := EvalValid(winProgram(), db, algebra.Budget{}); err != nil {
			t.Fatal(err)
		}
		return stats.Snapshot().Sub(before)
	}
	got := run()
	evals, edges := got["core.valid.evals"], int64(move.Len())
	// A path of 30 positions takes 16 alternation rounds of two Γ passes, and
	// a pass two rounds: one that derives, one that confirms.
	if evals != 64 || got["core.valid.rounds"] != 64 {
		t.Errorf("core.valid.evals = %d, rounds = %d, want 64 each", evals, got["core.valid.rounds"])
	}
	want := obsv.Snapshot{
		"diff.evals": evals, "diff.paths.probing": evals, "diff.paths.materialized": 0,
		"diff.probed": evals * edges, "diff.leaves": 2 * evals,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s = %d, want %d", k, got[k], n)
		}
	}
	if l := got["diff.lookups"]; l < evals*edges || l > 2*evals*edges {
		t.Errorf("diff.lookups = %d, want between %d and %d", l, evals*edges, 2*evals*edges)
	}
	if again := run(); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Errorf("counters do not repeat:\n  %v\n  %v", got, again)
	}
}

// TestTimeoutInsideOneProduct: a product of 9 million pairs, or a difference
// probing a million elements, is one operator evaluation — no fixpoint round
// boundary in it. Interrupted 10 ms in, the evaluator stops with ErrCanceled,
// two-valued and inside EvalValid, and soon: the loops poll the interrupt
// themselves.
func TestTimeoutInsideOneProduct(t *testing.T) {
	upTo := func(n int64) value.Set {
		b := value.NewSetBuilder(int(n))
		for i := int64(0); i < n; i++ {
			b.Add(value.Int(i))
		}
		return b.Set()
	}
	db := algebra.DB{"n": upTo(3000), "big": upTo(1_000_000)}

	exprs := map[string]algebra.Expr{
		"product": algebra.Product{L: rel("n"), R: rel("n")},
		// No element of big is a pair, so each is looked up in big itself.
		"diff": algebra.Diff{L: rel("big"), R: algebra.Union{L: algebra.Product{L: rel("n"), R: rel("n")}, R: rel("big")}},
	}
	hosts := map[string]func(algebra.Expr, algebra.Budget) error{
		"Evaluator": func(e algebra.Expr, b algebra.Budget) error {
			_, err := algebra.NewEvaluator(db, b).Eval(e)
			return err
		},
		"EvalValid": func(e algebra.Expr, b algebra.Budget) error {
			_, err := EvalValid(&Program{Defs: []Def{{Name: "p", Body: e}}}, db, b)
			return err
		},
	}
	for name, e := range exprs {
		for host, eval := range hosts {
			interrupt := make(chan struct{})
			timer := time.AfterFunc(10*time.Millisecond, func() { close(interrupt) })
			start := time.Now()
			err := eval(e, algebra.Budget{MaxSetSize: 1 << 30, Interrupt: interrupt})
			timer.Stop()
			if took := time.Since(start); !errors.Is(err, algebra.ErrCanceled) || took > 5*time.Second {
				t.Errorf("%s through %s: %v after %s, want ErrCanceled within moments of the interrupt", name, host, err, took)
			}
		}
	}
}

// BenchmarkEvalValidWin is Example 3 from scratch at the benchmark's size and
// at ten times it (go test -bench EvalValidWin -benchmem ./internal/core).
func BenchmarkEvalValidWin(b *testing.B) {
	for _, nodes := range []int{300, 3000} {
		db := algebra.DB{"move": gameGraph(1, nodes, 30)}
		b.Run(fmt.Sprint(nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvalValid(winProgram(), db, algebra.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIFPSubtrahendPolarity is FuzzCoreWellFounded's witness (corpus entry
// 7dc9ba29e420349e): a defined constant subtracted inside a delta-distributive
// IFP body must be read at the inverted polarity every round — s is undefined,
// not certain — on the production path and on the reference alike.
func TestIFPSubtrahendPolarity(t *testing.T) {
	body := algebra.IFP{Var: "v", Body: algebra.Diff{
		L: algebra.Union{L: rel("v"), R: algebra.Lit{Set: ints(0, 3)}},
		R: rel("s"),
	}}
	p := &Program{Defs: []Def{{Name: "s", Body: body}}}
	for i, newEval := range []func(algebra.DB, algebra.Budget) *algebra.Evaluator{algebra.NewEvaluator, algebra.NewReference} {
		res, err := Eval(newEval, p, algebra.DB{}, algebra.Budget{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lower["s"].IsEmpty() || !value.Equal(res.Upper["s"], ints(0, 3)) {
			t.Errorf("reference=%v: s = %v certain, %v possible; want {} and {0, 3}", i == 1, res.Lower["s"], res.Upper["s"])
		}
	}
}
