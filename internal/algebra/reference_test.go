package algebra_test

import (
	"reflect"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// TestReferenceIsNaive: NewReference is the whole reference, not only its
// materialized operators — a delta-distributive closure iterates naively, and
// internal/core's Γ rounds run on it when core.Eval is handed it, so a
// difference whose subtrahend is a product materializes it instead of
// probing. The production evaluator takes one semi-naive loop and probes.
func TestReferenceIsNaive(t *testing.T) {
	chain := make([]value.Value, 0, 8)
	for i := 0; i < 8; i++ {
		chain = append(chain, tup(i, i+1))
	}
	db := algebra.DB{"e": value.NewSet(chain...)}
	closure := mustExpr(t, `ifp(s, union(e, map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`)
	script, err := parse.ParseScript(`
		rel move = {(a, b), (b, c), (c, a), (c, d)};
		def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	var wins []value.Set
	for _, c := range []struct {
		name    string
		newEval func(algebra.DB, algebra.Budget) *algebra.Evaluator
		ifp     string
		diff    string // the path win's difference takes
	}{
		{"production", algebra.NewEvaluator, "seminaive", "probing"},
		{"reference", algebra.NewReference, "naive", "materialized"},
	} {
		stats := obsv.NewStats()
		ev := c.newEval(db, algebra.Budget{})
		ev.SetCollector(stats)
		if got, err := ev.Eval(closure); err != nil || got.Len() != 8*9/2 {
			t.Fatalf("%s: closure of %d pairs, %v; want 36", c.name, got.Len(), err)
		}
		snap := stats.Snapshot()
		for k := range snap {
			if !strings.HasPrefix(k, "ifp.") {
				delete(snap, k)
			}
		}
		want := obsv.Snapshot{"ifp." + c.ifp + ".calls": 1, "ifp." + c.ifp + ".rounds": 9, "ifp." + c.ifp + ".deltaElems": 36}
		if !reflect.DeepEqual(snap, want) {
			t.Errorf("%s: closure counters %v, want %v", c.name, snap, want)
		}

		loops := obsv.NewStats()
		prev := obsv.Default()
		obsv.SetDefault(loops)
		res, err := core.Eval(c.newEval, script.Program, script.DB, algebra.Budget{}, false)
		obsv.SetDefault(prev)
		snap = loops.Snapshot()
		if err != nil || snap["core.valid.calls"] != 1 || snap["diff.evals"] == 0 || snap["diff.paths."+c.diff] != snap["diff.evals"] {
			t.Fatalf("%s: core's valid loops: %v, counters %v; want every diff %s", c.name, err, snap, c.diff)
		}
		wins = append(wins, res.Lower["win"], res.Upper["win"])
	}
	if !value.Equal(wins[0], wins[2]) || !value.Equal(wins[1], wins[3]) {
		t.Errorf("win: production %v..%v, reference %v..%v", wins[0], wins[1], wins[2], wins[3])
	}
}
