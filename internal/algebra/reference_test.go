package algebra_test

import (
	"reflect"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/ivm"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
)

// coreEvals records internal/core's per-evaluation events.
type coreEvals struct {
	obsv.Nop
	events []obsv.CoreEvalStats
}

func (c *coreEvals) CoreEval(s obsv.CoreEvalStats) { c.events = append(c.events, s) }

// TestReferenceIsNaive: Budget.NoStreaming is the whole reference, not only
// its materialized operators — a delta-distributive closure iterates naively,
// core evaluates defining equations without a schedule, and a view of a
// stratified datalog program is maintained by recomputation. The production
// path takes one semi-naive loop, the schedule and counting/DRed.
func TestReferenceIsNaive(t *testing.T) {
	chain := make([]value.Value, 0, 8)
	for i := 0; i < 8; i++ {
		chain = append(chain, tup(i, i+1))
	}
	db := algebra.DB{"e": value.NewSet(chain...)}
	closure := mustExpr(t, `ifp(s, union(e, map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`)
	script := parse.MustParseScript(`
		rel move = {(a, b), (b, c), (c, a), (c, d)};
		def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
	`)
	plan, err := query.Compile(query.LangDatalog, query.SemStratified, `tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		budget algebra.Budget
		ifp    string
		strata bool
		mode   ivm.Mode
	}{
		{algebra.Budget{}, "seminaive", true, ivm.ModeIncremental},
		{algebra.Budget{NoStreaming: true}, "naive", false, ivm.ModeRecompute},
	} {
		stats := obsv.NewStats()
		ev := algebra.NewEvaluator(db, c.budget)
		ev.SetCollector(stats)
		if got, err := ev.Eval(closure); err != nil || got.Len() != 8*9/2 {
			t.Fatalf("NoStreaming=%v: closure of %d pairs, %v; want 36", c.budget.NoStreaming, got.Len(), err)
		}
		snap := stats.Snapshot()
		for k := range snap {
			if !strings.HasPrefix(k, "ifp.") {
				delete(snap, k)
			}
		}
		want := obsv.Snapshot{"ifp." + c.ifp + ".calls": 1, "ifp." + c.ifp + ".rounds": 9, "ifp." + c.ifp + ".deltaElems": 36}
		if !reflect.DeepEqual(snap, want) {
			t.Errorf("NoStreaming=%v: closure counters %v, want %v", c.budget.NoStreaming, snap, want)
		}

		rec := &coreEvals{}
		prev := obsv.Default()
		obsv.SetDefault(rec)
		_, err := core.EvalValid(script.Program, script.DB, c.budget)
		obsv.SetDefault(prev)
		if err != nil || len(rec.events) != 1 || (rec.events[0].Strata > 0) != c.strata {
			t.Errorf("NoStreaming=%v: EvalValid %v, events %+v; want one, scheduled %v", c.budget.NoStreaming, err, rec.events, c.strata)
		}

		if v, err := ivm.New(plan, db, query.Options{Budget: c.budget}); err != nil {
			t.Errorf("NoStreaming=%v: view: %v", c.budget.NoStreaming, err)
		} else if v.Mode() != c.mode {
			t.Errorf("NoStreaming=%v: view mode %s, want %s", c.budget.NoStreaming, v.Mode(), c.mode)
		}
	}
}
