// Package expt provides the experiment harness for this reproduction: the
// paper has no tables or figures (it is an expressiveness paper), so the
// experiment suite instead makes every stated theorem and proposition
// executable on parameterized workloads and reports agreement plus timings.
// DESIGN.md's per-experiment index (E1–E11) maps each experiment to
// the paper result it checks; EXPERIMENTS.md records a full run.
package expt

import (
	"fmt"
	"math/rand"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// ChainEdges returns edge facts e(i, i+1) for i in [0, n).
func ChainEdges(pred string, n int) []datalog.Fact {
	out := make([]datalog.Fact, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{value.Int(int64(i)), value.Int(int64(i + 1))}})
	}
	return out
}

// CycleEdges returns edge facts forming one n-cycle.
func CycleEdges(pred string, n int) []datalog.Fact {
	out := make([]datalog.Fact, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{value.Int(int64(i)), value.Int(int64((i + 1) % n))}})
	}
	return out
}

// GridEdges returns right/down edges of a w×h grid, nodes numbered row-major.
func GridEdges(pred string, w, h int) []datalog.Fact {
	var out []datalog.Fact
	id := func(x, y int) value.Value { return value.Int(int64(y*w + x)) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{id(x, y), id(x+1, y)}})
			}
			if y+1 < h {
				out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{id(x, y), id(x, y+1)}})
			}
		}
	}
	return out
}

// RandomGraph returns m random edges over n nodes (duplicates deduped by the
// fact representation downstream; self-loops allowed — they matter for the
// win game).
func RandomGraph(pred string, n, m int, seed int64) []datalog.Fact {
	r := rand.New(rand.NewSource(seed))
	out := make([]datalog.Fact, 0, m)
	for i := 0; i < m; i++ {
		a := value.Int(int64(r.Intn(n)))
		b := value.Int(int64(r.Intn(n)))
		out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{a, b}})
	}
	return out
}

// RandomDAG returns m random forward edges over n nodes (i → j only when
// i < j), guaranteeing acyclicity.
func RandomDAG(pred string, n, m int, seed int64) []datalog.Fact {
	r := rand.New(rand.NewSource(seed))
	out := make([]datalog.Fact, 0, m)
	for i := 0; i < m; i++ {
		a := r.Intn(n - 1)
		b := a + 1 + r.Intn(n-a-1)
		out = append(out, datalog.Fact{Pred: pred, Args: []value.Value{value.Int(int64(a)), value.Int(int64(b))}})
	}
	return out
}

// TCProgram returns the transitive-closure program over the given edges.
func TCProgram(edges []datalog.Fact) *datalog.Program {
	p := datalog.MustParse(`
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`)
	p.AddFacts(edges...)
	return p
}

// WinProgram returns the paper's Example 3 game over the given move facts:
// win(X) :- move(X, Y), not win(Y).
func WinProgram(moves []datalog.Fact) *datalog.Program {
	p := datalog.MustParse("win(X) :- move(X, Y), not win(Y).\n")
	p.AddFacts(moves...)
	return p
}

// StratifiedReachProgram returns a two-stratum program: reachability from
// node 0 plus its negation-guarded complement.
func StratifiedReachProgram(edges []datalog.Fact, n int) *datalog.Program {
	p := datalog.MustParse(`
r(X) :- e(0, X).
r(Y) :- r(X), e(X, Y).
unreached(X) :- node(X), not r(X).
`)
	p.AddFacts(edges...)
	for i := 0; i < n; i++ {
		p.AddFacts(datalog.Fact{Pred: "node", Args: []value.Value{value.Int(int64(i))}})
	}
	return p
}

// RandomNegProgram returns a random propositional program with negation —
// the stress corpus for the semantics comparisons (E10).
func RandomNegProgram(seed int64, atoms, rules int) *datalog.Program {
	r := rand.New(rand.NewSource(seed))
	name := func(i int) string { return fmt.Sprintf("a%d", i) }
	p := &datalog.Program{}
	for i := 0; i < rules; i++ {
		head := datalog.Atom{Pred: name(r.Intn(atoms))}
		var body []datalog.Literal
		for j := r.Intn(3); j > 0; j-- {
			body = append(body, datalog.LitAtom{Neg: r.Intn(3) == 0, Atom: datalog.Atom{Pred: name(r.Intn(atoms))}})
		}
		p.Rules = append(p.Rules, datalog.Rule{Head: head, Body: body})
	}
	return p
}

// FactsDB converts binary facts into an algebra database relation of pairs.
func FactsDB(name string, facts []datalog.Fact) algebra.DB {
	elems := make([]value.Value, 0, len(facts))
	for _, f := range facts {
		elems = append(elems, value.NewTuple(f.Args...))
	}
	return algebra.DB{name: value.NewSet(elems...)}
}

// TCIFPExpr returns the transitive-closure IFP expression over the named
// binary relation: IFP_x(rel ∪ compose(x, rel)).
func TCIFPExpr(rel string) algebra.Expr {
	return algebra.IFP{Var: "x", Body: tcStep("x", rel)}
}

// TCEquationProgram returns the algebra= equation tc = rel ∪ compose(tc, rel)
// — the monotone recursive-definition counterpart of TCIFPExpr for the
// Proposition 3.4 experiment.
func TCEquationProgram(rel string) *core.Program {
	return &core.Program{Defs: []core.Def{{Name: "tc", Body: tcStep("tc", rel)}}}
}

func tcStep(acc, rel string) algebra.Expr {
	p := algebra.FVar{Name: "p"}
	join := algebra.Select{
		Of:  algebra.Product{L: algebra.Rel{Name: acc}, R: algebra.Rel{Name: rel}},
		Var: "p",
		Test: algebra.FCmp{Op: builtin.Eq,
			L: algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 2},
			R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
	}
	compose := algebra.Map{Of: join, Var: "p", Out: algebra.FTuple{Elems: []algebra.FExpr{
		algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 1},
		algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2},
	}}}
	return algebra.Union{L: algebra.Rel{Name: rel}, R: compose}
}

// WinCoreProgram returns Example 3's WIN equation:
// WIN = π1(MOVE − ((π1 MOVE) × WIN)).
func WinCoreProgram() *core.Program {
	body := algebra.Proj(
		algebra.Diff{
			L: algebra.Rel{Name: "move"},
			R: algebra.Product{L: algebra.Proj(algebra.Rel{Name: "move"}, 1), R: algebra.Rel{Name: "win"}},
		}, 1)
	return &core.Program{Defs: []core.Def{{Name: "win", Body: body}}}
}

// EvenSetProgram returns Example 3's S_c^e = {0} ∪ MAP_{+2}(S_c^e), bounded
// below the given limit so the fixed point is finite.
func EvenSetProgram(bound int64) *core.Program {
	x := algebra.FVar{Name: "x"}
	step := algebra.Map{Of: algebra.Rel{Name: "se"}, Var: "x",
		Out: algebra.FArith{Op: builtin.Plus, L: x, R: algebra.FConst{V: value.Int(2)}}}
	body := algebra.Select{
		Of:   algebra.Union{L: algebra.Singleton(value.Int(0)), R: step},
		Var:  "x",
		Test: algebra.FCmp{Op: builtin.Lt, L: x, R: algebra.FConst{V: value.Int(bound)}},
	}
	return &core.Program{Defs: []core.Def{{Name: "se", Body: body}}}
}
