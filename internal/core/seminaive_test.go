package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"algrec/internal/algebra"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

// chainDB returns a database with the n edges (i, i+1) of a length-n chain
// under the given relation name.
func chainDB(name string, n int) algebra.DB {
	elems := make([]value.Value, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, value.Pair(value.Int(int64(i)), value.Int(int64(i+1))))
	}
	return algebra.DB{name: value.NewSet(elems...)}
}

// tcDef returns the equation name = e ∪ compose(name, e): transitive closure
// as a recursive definition.
func tcDef(name string) Def {
	p := algebra.FVar{Name: "p"}
	join := algebra.Select{
		Of:  algebra.Product{L: rel(name), R: rel("e")},
		Var: "p",
		Test: algebra.FCmp{Op: algebra.OpEq,
			L: algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 2},
			R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
	}
	body := algebra.Union{L: rel("e"), R: algebra.Map{Of: join, Var: "p",
		Out: algebra.FTuple{Elems: []algebra.FExpr{
			algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 1},
			algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2}}}}}
	return Def{Name: name, Body: body}
}

// randEquationProgram generates a three-definition program mixing recursion,
// negation (Diff with defined constants on the right), Flip annotations and
// IFP subexpressions — the shapes the scheduler must get right.
func randEquationProgram(r *rand.Rand) *Program {
	defs := []string{"s0", "s1", "s2"}
	var mkExpr func(depth int) algebra.Expr
	mkExpr = func(depth int) algebra.Expr {
		if depth == 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return rel("base")
			case 1:
				return rel(defs[r.Intn(len(defs))])
			default:
				return algebra.Lit{Set: ints(int64(r.Intn(5)))}
			}
		}
		x := algebra.FVar{Name: "x"}
		switch r.Intn(6) {
		case 0:
			return algebra.Union{L: mkExpr(depth - 1), R: mkExpr(depth - 1)}
		case 1:
			// negation: a defined constant may land on the right
			return algebra.Diff{L: mkExpr(depth - 1), R: mkExpr(depth - 1)}
		case 2:
			return algebra.Select{Of: mkExpr(depth - 1), Var: "x",
				Test: algebra.FCmp{Op: algebra.OpLt, L: x, R: algebra.FConst{V: value.Int(int64(r.Intn(6)))}}}
		case 3:
			return algebra.Map{Of: mkExpr(depth - 1), Var: "x",
				Out: algebra.FArith{Op: algebra.OpMod,
					L: algebra.FArith{Op: algebra.OpPlus, L: x, R: algebra.FConst{V: value.Int(1)}},
					R: algebra.FConst{V: value.Int(7)}}}
		case 4:
			return algebra.Flip{E: mkExpr(depth - 1)}
		default:
			return algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: mkExpr(depth - 1)}}
		}
	}
	p := &Program{}
	for _, name := range defs {
		p.Defs = append(p.Defs, Def{Name: name, Body: mkExpr(3)})
	}
	return p
}

// TestPropertySemiNaiveValidEquivalence: the scheduled engine (SCC strata,
// delta-tracked skipping, parallel rounds) computes the same valid
// interpretation as the reference's naive sequential engine on random
// programs with negation.
func TestPropertySemiNaiveValidEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randEquationProgram(r)
		db := algebra.DB{"base": ints(1, 2, 3)}
		budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
		naiveB := budget
		naiveB.NoStreaming = true
		sRes, sErr := EvalValid(p, db, budget)
		nRes, nErr := EvalValid(p, db, naiveB)
		if sErr != nil || nErr != nil {
			return true // budget blowups may strike the two engines at different rounds
		}
		if !sameSets(sRes.Lower, nRes.Lower) || !sameSets(sRes.Upper, nRes.Upper) {
			t.Logf("seed %d: valid interpretations differ\nscheduled: %v / %v\nnaive: %v / %v\nprogram:\n%s",
				seed, sRes.Lower, sRes.Upper, nRes.Lower, nRes.Upper, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySemiNaiveInflationaryEquivalence: same for the inflationary
// semantics, whose scheduler may only skip and parallelize — never reorder.
func TestPropertySemiNaiveInflationaryEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randEquationProgram(r)
		db := algebra.DB{"base": ints(1, 2, 3)}
		budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
		naiveB := budget
		naiveB.NoStreaming = true
		s, sErr := EvalInflationary(p, db, budget)
		n, nErr := EvalInflationary(p, db, naiveB)
		if sErr != nil || nErr != nil {
			return true
		}
		if !sameSets(s, n) {
			t.Logf("seed %d: inflationary results differ: %v vs %v\nprogram:\n%s", seed, s, n, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInflationaryStratificationCounterexample pins why EvalInflationary
// keeps global rounds: under pos = neg = cur the equations interact through
// negation, and evaluating def-by-def to fixpoint changes results. With
// a = {1} − b and b = {1}, round 0 evaluates both against the empty state, so
// a receives 1 before b blocks it.
func TestInflationaryStratificationCounterexample(t *testing.T) {
	p := &Program{Defs: []Def{
		{Name: "a", Body: algebra.Diff{L: algebra.Lit{Set: ints(1)}, R: rel("b")}},
		{Name: "b", Body: algebra.Lit{Set: ints(1)}},
	}}
	for _, reference := range []bool{false, true} {
		got, err := EvalInflationary(p, algebra.DB{}, algebra.Budget{NoStreaming: reference})
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(got["a"], ints(1)) || !value.Equal(got["b"], ints(1)) {
			t.Errorf("NoStreaming=%v: got a=%v b=%v, want a={1} b={1}", reference, got["a"], got["b"])
		}
	}
}

// coreRecorder captures CoreEvalStats events.
type coreRecorder struct {
	obsv.Nop
	events []obsv.CoreEvalStats
}

func (c *coreRecorder) CoreEval(s obsv.CoreEvalStats) { c.events = append(c.events, s) }

// TestCoreEvalCounters pins the scheduler's observability on a hand-computed
// program: transitive closure of a length-3 chain plus one independent
// definition.
//
// Valid semantics: the posDeps graph has two singleton SCCs ([tc] with a
// self-loop, [d]), both at condensation depth 0, so they merge into one
// level. Each Γ pass runs the level for 4 rounds (tc growth 3, 2, 1, 0);
// round 0 evaluates both defs and d — no posDeps — is skip-tracked in the 3
// later rounds: 4 rounds, 5 evaluations, 3 skips per Γ. The alternation
// needs 4 Γ passes (empty → fixpoint → confirm, twice).
//
// Inflationary semantics: global Jacobi rounds. Round 0 evaluates both defs;
// d has no inputs, so the delta tracker skips it in every later round, and
// tc runs 3 more rounds (growth 2, 1, 0): 4 rounds, 5 evaluations, 3 skips.
func TestCoreEvalCounters(t *testing.T) {
	p := &Program{Defs: []Def{
		tcDef("tc"),
		{Name: "d", Body: algebra.Lit{Set: ints(99)}},
	}}
	db := chainDB("e", 3)

	rec := &coreRecorder{}
	obsv.SetDefault(rec)
	defer obsv.SetDefault(nil)

	if _, err := EvalValid(p, db, algebra.Budget{}); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 1 {
		t.Fatalf("valid: %d CoreEval events, want 1", len(rec.events))
	}
	v := rec.events[0]
	// Workers depends on GOMAXPROCS (round 0 has two independent defs), so
	// compare it separately.
	if v.Workers < 1 {
		t.Errorf("valid workers = %d, want >= 1", v.Workers)
	}
	v.Workers = 0
	want := obsv.CoreEvalStats{Semantics: "valid", Defs: 2, Strata: 2, Gammas: 4, Rounds: 16, Evals: 20, Skips: 12}
	if v != want {
		t.Errorf("valid event = %+v, want %+v (modulo Workers)", v, want)
	}

	rec.events = nil
	got, err := EvalInflationary(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got["tc"].Len() != 6 || !value.Equal(got["d"], ints(99)) {
		t.Fatalf("inflationary result wrong: tc=%v d=%v", got["tc"], got["d"])
	}
	if len(rec.events) != 1 {
		t.Fatalf("inflationary: %d CoreEval events, want 1", len(rec.events))
	}
	i := rec.events[0]
	// Workers depends on GOMAXPROCS (round 0 has two independent defs), so
	// compare it separately.
	if i.Workers < 1 {
		t.Errorf("inflationary workers = %d, want >= 1", i.Workers)
	}
	i.Workers = 0
	wantI := obsv.CoreEvalStats{Semantics: "inflationary", Defs: 2, Strata: 2, Gammas: 1, Rounds: 4, Evals: 5, Skips: 3}
	if i != wantI {
		t.Errorf("inflationary event = %+v, want %+v (modulo Workers)", i, wantI)
	}
}

// TestScheduleStrata pins the dependency analysis: polarity tracking through
// Diff and Flip, IFP-binder shadowing, and dependencies-first SCC order.
func TestScheduleStrata(t *testing.T) {
	p := &Program{Defs: []Def{
		{Name: "a", Body: algebra.Union{L: rel("b"), R: algebra.Diff{L: rel("base"), R: rel("c")}}},
		{Name: "b", Body: rel("a")},
		{Name: "c", Body: algebra.IFP{Var: "b", Body: algebra.Union{L: rel("b"), R: rel("base")}}},
	}}
	sc := newSchedule(p)
	// a reads b positively and c negatively; b reads a positively; c's "b" is
	// the IFP binder, not the definition.
	if len(sc.posDeps[0]) != 1 || sc.posDeps[0][0] != 1 {
		t.Errorf("posDeps(a) = %v, want [1]", sc.posDeps[0])
	}
	if len(sc.allDeps[0]) != 2 {
		t.Errorf("allDeps(a) = %v, want [1 2]", sc.allDeps[0])
	}
	if len(sc.posDeps[2]) != 0 || len(sc.allDeps[2]) != 0 {
		t.Errorf("deps(c) = %v/%v, want none (IFP binder shadows)", sc.posDeps[2], sc.allDeps[2])
	}
	if len(sc.strata) != 2 {
		t.Fatalf("strata = %v, want 2", sc.strata)
	}
	// {a, b} is one SCC; it positively depends on nothing else, but c must
	// not come after consumers of c... c has no positive consumers, so the
	// only hard requirement is that the a-b component is one stratum.
	for _, st := range sc.strata {
		if len(st) == 2 && (st[0] != 0 || st[1] != 1) {
			t.Errorf("two-element stratum = %v, want [0 1]", st)
		}
	}
}

// TestFlipPolarityInSchedule: Flip flips the polarity of reads beneath it,
// so a def read only under Flip at top level is a negative dep (not a
// positive one), and double Flip restores positivity.
func TestFlipPolarityInSchedule(t *testing.T) {
	p := &Program{Defs: []Def{
		{Name: "a", Body: algebra.Flip{E: rel("b")}},
		{Name: "b", Body: algebra.Flip{E: algebra.Flip{E: rel("c")}}},
		{Name: "c", Body: algebra.Lit{Set: ints(1)}},
	}}
	sc := newSchedule(p)
	if len(sc.posDeps[0]) != 0 {
		t.Errorf("posDeps(a) = %v, want none (single Flip reads negatively)", sc.posDeps[0])
	}
	if len(sc.allDeps[0]) != 1 || sc.allDeps[0][0] != 1 {
		t.Errorf("allDeps(a) = %v, want [1]", sc.allDeps[0])
	}
	if len(sc.posDeps[1]) != 1 || sc.posDeps[1][0] != 2 {
		t.Errorf("posDeps(b) = %v, want [2] (double Flip is positive)", sc.posDeps[1])
	}
	if !sc.gammaMonotone {
		t.Error("gammaMonotone = false, want true (Flip alone never subtracts)")
	}
}

// TestGammaMonotoneAnalysis pins the environment-parity vs monotonicity-
// parity distinction: a pos-environment read is anti-monotone exactly when
// its subtraction parity is odd, which diverges from the environment parity
// under Flip, and an IFP body non-monotone in its own accumulator taints
// every read inside it.
func TestGammaMonotoneAnalysis(t *testing.T) {
	lit := algebra.Lit{Set: ints(1)}
	cases := []struct {
		name string
		body algebra.Expr
		want bool
	}{
		{"plain read", rel("s"), true},
		{"subtrahend reads neg: constant during gamma", algebra.Diff{L: lit, R: rel("s")}, true},
		{"flip alone reads neg: constant during gamma", algebra.Flip{E: rel("s")}, true},
		{"flipped subtrahend reads pos anti-monotonically",
			algebra.Flip{E: algebra.Diff{L: lit, R: rel("s")}}, false},
		{"flip inside subtrahend likewise",
			algebra.Diff{L: lit, R: algebra.Flip{E: rel("s")}}, false},
		{"double subtraction is monotone again",
			algebra.Diff{L: lit, R: algebra.Diff{L: lit, R: rel("s")}}, true},
		{"monotone ifp body keeps reads clean",
			algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: rel("s")}}, true},
		{"ifp non-monotone in its accumulator taints pos reads",
			algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("s"), R: algebra.Diff{L: lit, R: rel("acc")}}}, false},
		{"tainted ifp without defined reads is harmless",
			algebra.IFP{Var: "acc", Body: algebra.Diff{L: lit, R: rel("acc")}}, true},
	}
	for _, c := range cases {
		p := &Program{Defs: []Def{{Name: "t", Body: c.body}, {Name: "s", Body: lit}}}
		if got := newSchedule(p).gammaMonotone; got != c.want {
			t.Errorf("%s: gammaMonotone = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFlippedSubtrahendRegression pins the program that exposed the
// environment/monotonicity confusion (property-test seed 4203084367423753265):
// s0 subtracts an IFP over s2 inside a Flip, so the s2 read has even
// environment parity (reads pos) but odd subtraction parity (anti-monotone).
// The reference Gauss-Seidel engine evaluates s0 before s2 has grown and the
// inflationary accumulator keeps the transient derivation {1, 2}; a
// stratified schedule would evaluate s2 first and derive ∅. EvalValid must
// detect the shape and reproduce the reference answer.
func TestFlippedSubtrahendRegression(t *testing.T) {
	x := algebra.FVar{Name: "x"}
	p := &Program{Defs: []Def{
		{Name: "s0", Body: algebra.Flip{E: algebra.Diff{
			L: algebra.Select{Of: rel("s1"), Var: "x",
				Test: algebra.FCmp{Op: algebra.OpLt, L: x, R: algebra.FConst{V: value.Int(3)}}},
			R: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: rel("s2")}},
		}}},
		{Name: "s1", Body: algebra.Union{L: algebra.Lit{Set: ints(3)}, R: rel("s2")}},
		{Name: "s2", Body: algebra.Flip{E: algebra.Union{
			L: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: algebra.Lit{Set: ints(1)}}},
			R: algebra.IFP{Var: "acc", Body: algebra.Union{L: rel("acc"), R: rel("base")}},
		}}},
	}}
	db := algebra.DB{"base": ints(1, 2, 3)}
	budget := algebra.Budget{MaxIFPIters: 1000, MaxSetSize: 10000}
	naiveB := budget
	naiveB.NoStreaming = true
	sRes, err := EvalValid(p, db, budget)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := EvalValid(p, db, naiveB)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(sRes.Lower, nRes.Lower) || !sameSets(sRes.Upper, nRes.Upper) {
		t.Errorf("engines disagree:\nscheduled: %v / %v\nnaive: %v / %v",
			sRes.Lower, sRes.Upper, nRes.Lower, nRes.Upper)
	}
	if !value.Equal(sRes.Lower["s0"], ints(1, 2)) {
		t.Errorf("s0 = %v, want {1, 2} (the reference engine's order-dependent answer)", sRes.Lower["s0"])
	}
}
