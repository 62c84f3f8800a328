package expt

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/translate"
	"algrec/internal/value"
)

// RunP1 measures naive vs semi-naive minimal-model evaluation on transitive
// closure (performance experiment; both must agree on the result).
func RunP1(sizes []int) (*Table, error) {
	t := &Table{ID: "P1", Title: "naive vs semi-naive minimal-model evaluation (performance)", OK: true,
		Header: []string{"workload", "atoms", "rules", "naive", "semiNaive", "agree"}}
	for _, n := range sizes {
		for _, w := range []struct {
			name  string
			edges []datalog.Fact
		}{
			{fmt.Sprintf("chain(%d)", n), ChainEdges("e", n)},
			{fmt.Sprintf("grid(%dx%d)", n/8+2, 8), GridEdges("e", n/8+2, 8)},
		} {
			p := TCProgram(w.edges)
			g, err := ground.Ground(p, ground.Budget{})
			if err != nil {
				return nil, err
			}
			e := semantics.NewEngine(g)
			var naive, semi *semantics.Interp
			dNaive := timed(func() { naive, err = e.MinimalNaive() })
			if err != nil {
				return nil, err
			}
			dSemi := timed(func() { semi, err = e.Minimal() })
			if err != nil {
				return nil, err
			}
			agree := semantics.SameTruths(naive, semi)
			if !agree {
				t.OK = false
			}
			t.Add(w.name, g.NumAtoms(), len(g.Rules), dNaive, dSemi, agree)
		}
	}
	return t, nil
}

// RunP2 measures the two evaluation paths for algebra= programs: the direct
// three-valued set evaluator of internal/core vs translating to deduction
// and evaluating under the valid semantics (they must agree — that is
// Theorem 6.2 — so the comparison is purely about cost).
func RunP2(sizes []int) (*Table, error) {
	t := &Table{ID: "P2", Title: "direct algebra= evaluator vs translate-to-deduction pipeline (performance)", OK: true,
		Header: []string{"workload", "direct", "translate+valid", "agree"}}
	for _, n := range sizes {
		for _, w := range []struct {
			name  string
			moves []datalog.Fact
		}{
			{fmt.Sprintf("moveChain(%d)", n), ChainEdges("move", n)},
			{fmt.Sprintf("moveRandom(%d)", n), RandomGraph("move", n, 2*n, int64(n))},
		} {
			db := FactsDB("move", w.moves)
			prog := WinCoreProgram()
			var res *core.Result
			var err error
			dDirect := timed(func() { res, err = core.EvalValid(prog, db, algebra.Budget{}) })
			if err != nil {
				return nil, err
			}
			var in *semantics.Interp
			dPipeline := timed(func() {
				dp, terr := translate.CoreToDatalog(prog)
				if terr != nil {
					err = terr
					return
				}
				dp.AddFacts(translate.DBFacts(db)...)
				in, err = semantics.Eval(dp, semantics.SemValid, ground.Budget{})
			})
			if err != nil {
				return nil, err
			}
			agree := value.Equal(res.Set("win"), translate.TrueSet(in, "win")) &&
				value.Equal(res.UndefElems("win"), translate.UndefSet(in, "win"))
			if !agree {
				t.OK = false
			}
			t.Add(w.name, dDirect, dPipeline, agree)
		}
	}
	return t, nil
}

// RunP3 measures stable-model search cost against the number of atoms left
// undefined by the well-founded model: k independent 2-cycles leave 2k
// undefined atoms and have 2^k stable models.
func RunP3(ks []int) (*Table, error) {
	t := &Table{ID: "P3", Title: "stable-model search cost vs residual size (performance)", OK: true,
		Header: []string{"cycles", "undef", "stableModels", "expected", "time"}}
	for _, k := range ks {
		p := &datalog.Program{}
		for i := 0; i < k; i++ {
			a := fmt.Sprintf("p%d", i)
			b := fmt.Sprintf("q%d", i)
			p.Rules = append(p.Rules,
				datalog.Rule{Head: datalog.Atom{Pred: a}, Body: []datalog.Literal{datalog.Neg(b)}},
				datalog.Rule{Head: datalog.Atom{Pred: b}, Body: []datalog.Literal{datalog.Neg(a)}})
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return nil, err
		}
		e := semantics.NewEngine(g)
		wfs := e.WellFounded()
		var models []*semantics.Interp
		d := timed(func() { models, err = e.StableModels(2 * k) })
		if err != nil {
			return nil, err
		}
		expected := 1 << k
		ok := len(models) == expected && wfs.CountUndef() == 2*k
		if !ok {
			t.OK = false
		}
		t.Add(k, wfs.CountUndef(), len(models), expected, d)
	}
	return t, nil
}
