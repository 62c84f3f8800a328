package translate

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/value"
)

// randomSafeProgram generates a random safe deductive program with negation:
// a pool of EDB facts over small integers, and IDB rules whose bodies start
// with positive atoms (binding all variables) followed by optional
// comparisons and negated atoms over bound variables. Every rule is safe by
// construction (Definition 4.1).
func randomSafeProgram(r *rand.Rand) *datalog.Program {
	p := &datalog.Program{}
	edb := []struct {
		name  string
		arity int
	}{{"d", 1}, {"e", 2}}
	idb := []struct {
		name  string
		arity int
	}{{"p", 1}, {"q", 1}, {"s", 2}}
	// facts
	nConst := 3 + r.Intn(3)
	for i := 0; i < 4+r.Intn(6); i++ {
		rel := edb[r.Intn(len(edb))]
		args := make([]value.Value, rel.arity)
		for j := range args {
			args[j] = value.Int(int64(r.Intn(nConst)))
		}
		p.AddFacts(datalog.Fact{Pred: rel.name, Args: args})
	}
	vars := []datalog.Var{"X", "Y", "Z"}
	all := append(append([]struct {
		name  string
		arity int
	}{}, edb...), idb...)
	// rules
	for i := 0; i < 3+r.Intn(5); i++ {
		head := idb[r.Intn(len(idb))]
		var body []datalog.Literal
		bound := map[datalog.Var]bool{}
		var boundList []datalog.Var
		// positive atoms binding variables
		for j := 0; j < 1+r.Intn(2); j++ {
			rel := all[r.Intn(len(all))]
			args := make([]datalog.Term, rel.arity)
			for k := range args {
				v := vars[r.Intn(len(vars))]
				args[k] = v
				if !bound[v] {
					bound[v] = true
					boundList = append(boundList, v)
				}
			}
			body = append(body, datalog.LitAtom{Atom: datalog.Atom{Pred: rel.name, Args: args}})
		}
		// optional comparison over bound variables
		if r.Intn(3) == 0 && len(boundList) > 0 {
			v := boundList[r.Intn(len(boundList))]
			body = append(body, datalog.Cmp(builtin.Cmp(r.Intn(6)), v, datalog.CInt(int64(r.Intn(nConst)))))
		}
		// optional bounded arithmetic assignment: W = plus(V, 1), W < c —
		// exercises interpreted functions through every translation while
		// the guard keeps the active domain finite.
		if r.Intn(4) == 0 && len(boundList) > 0 {
			src := boundList[r.Intn(len(boundList))]
			w := datalog.Var("W")
			if !bound[w] {
				body = append(body,
					datalog.Cmp(builtin.Eq, w, datalog.Apply{Fn: "plus", Args: []datalog.Term{src, datalog.CInt(1)}}),
					datalog.Cmp(builtin.Lt, w, datalog.CInt(int64(nConst+2))))
				bound[w] = true
				boundList = append(boundList, w)
			}
		}
		// optional negated atoms over bound variables
		for j := r.Intn(2); j > 0 && len(boundList) > 0; j-- {
			rel := all[r.Intn(len(all))]
			args := make([]datalog.Term, rel.arity)
			for k := range args {
				args[k] = boundList[r.Intn(len(boundList))]
			}
			body = append(body, datalog.LitAtom{Neg: true, Atom: datalog.Atom{Pred: rel.name, Args: args}})
		}
		headArgs := make([]datalog.Term, head.arity)
		for k := range headArgs {
			if len(boundList) > 0 {
				headArgs[k] = boundList[r.Intn(len(boundList))]
			} else {
				headArgs[k] = datalog.CInt(0)
			}
		}
		p.Rules = append(p.Rules, datalog.Rule{Head: datalog.Atom{Pred: head.name, Args: headArgs}, Body: body})
	}
	return p
}

// TestPropertyTheorem62 is the repository's strongest single check: on
// random safe programs with negation, the valid model computed by the
// deductive engine coincides — certain AND undefined parts — with the valid
// interpretation of the Proposition 6.1 algebra= translation.
func TestPropertyTheorem62(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSafeProgram(r)
		if err := datalog.CheckProgramSafe(p); err != nil {
			t.Logf("generator produced unsafe program: %v", err)
			return false
		}
		in, err := semantics.Eval(p, semantics.SemValid, ground.Budget{})
		if err != nil {
			t.Logf("valid eval: %v", err)
			return false
		}
		cp, db, err := DatalogToCore(p)
		if err != nil {
			t.Logf("translate: %v", err)
			return false
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Logf("core eval: %v", err)
			return false
		}
		for _, pred := range p.IDB() {
			if !value.Equal(res.Set(pred), TrueSet(in, pred)) {
				t.Logf("seed %d: pred %s certain: core %v vs datalog %v\nprogram:\n%s",
					seed, pred, res.Set(pred), TrueSet(in, pred), p)
				return false
			}
			if !value.Equal(res.UndefElems(pred), UndefSet(in, pred)) {
				t.Logf("seed %d: pred %s undefined: core %v vs datalog %v\nprogram:\n%s",
					seed, pred, res.UndefElems(pred), UndefSet(in, pred), p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStratifiedTheorem43 does the same for stratified random
// programs and the positive-IFP translation: negation only against EDB
// relations keeps the program stratified.
func TestPropertyStratifiedTheorem43(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSafeProgram(r)
		if !datalog.IsStratified(p) {
			return true // skip non-stratified draws
		}
		strat, err := datalog.Stratify(p)
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		in, err := semantics.NewEngine(g).Stratified(strat)
		if err != nil {
			return false
		}
		cp, db, err := StratifiedToPositiveIFP(p)
		if err != nil {
			t.Logf("seed %d: translate: %v", seed, err)
			return false
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Logf("seed %d: core eval: %v", seed, err)
			return false
		}
		if !res.WellDefined() {
			t.Logf("seed %d: positive IFP translation not well defined", seed)
			return false
		}
		for _, pred := range p.IDB() {
			if !value.Equal(res.Set(pred), TrueSet(in, pred)) {
				t.Logf("seed %d: pred %s: core %v vs stratified %v\nprogram:\n%s",
					seed, pred, res.Set(pred), TrueSet(in, pred), p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStepIndex checks Proposition 5.2 on the random corpus.
func TestPropertyStepIndex(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSafeProgram(r)
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		infl, steps := semantics.NewEngine(g).Inflationary()
		si := StepIndex(p, int64(steps)+1)
		valid, err := semantics.Eval(si, semantics.SemValid, ground.Budget{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if valid.CountUndef() != 0 {
			t.Logf("seed %d: step-indexed program not two-valued", seed)
			return false
		}
		for _, pred := range p.Preds() {
			if !value.Equal(TrueSet(infl, pred), TrueSet(valid, pred)) {
				t.Logf("seed %d: pred %s: inflationary %v vs step-indexed %v\nprogram:\n%s",
					seed, pred, TrueSet(infl, pred), TrueSet(valid, pred), p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRoundTrip: datalog → algebra= → datalog preserves the valid
// model on the random corpus (Theorem 6.2 both ways, composed).
func TestPropertyRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSafeProgram(r)
		orig, err := semantics.Eval(p, semantics.SemValid, ground.Budget{})
		if err != nil {
			return false
		}
		cp, db, err := DatalogToCore(p)
		if err != nil {
			return false
		}
		back, err := CoreToDatalog(cp)
		if err != nil {
			return false
		}
		back.AddFacts(DBFacts(db)...)
		in2, err := semantics.Eval(back, semantics.SemValid, ground.Budget{})
		if err != nil {
			return false
		}
		for _, pred := range p.IDB() {
			if !value.Equal(TrueSet(in2, pred), TrueSet(orig, pred)) ||
				!value.Equal(UndefSet(in2, pred), UndefSet(orig, pred)) {
				t.Logf("seed %d: pred %s diverged on round trip\nprogram:\n%s", seed, pred, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCertainlyWellDefined: the local-stratification sufficient
// check never returns true for a program whose valid evaluation is
// three-valued (soundness of CertainlyWellDefined).
func TestPropertyCertainlyWellDefined(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSafeProgram(r)
		cp, db, err := DatalogToCore(p)
		if err != nil {
			return false
		}
		sure, err := CertainlyWellDefined(cp, db)
		if err != nil {
			return false
		}
		if !sure {
			return true // inconclusive: nothing to check
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			return false
		}
		if !res.WellDefined() {
			t.Logf("seed %d: CertainlyWellDefined=true but evaluation is 3-valued\nprogram:\n%s", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCertainlyWellDefinedCases(t *testing.T) {
	// Acyclic win game: locally stratified, certainly well defined.
	dbAcyclic := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"})}
	sure, err := CertainlyWellDefined(winCore(), dbAcyclic)
	if err != nil {
		t.Fatal(err)
	}
	if !sure {
		t.Error("acyclic game should be certainly well defined")
	}
	// Cyclic: not locally stratified — inconclusive (and in fact 3-valued).
	dbCyclic := algebra.DB{"move": pairsOf([2]string{"a", "a"})}
	sure, err = CertainlyWellDefined(winCore(), dbCyclic)
	if err != nil {
		t.Fatal(err)
	}
	if sure {
		t.Error("cyclic game must not be certified")
	}
}

// TestProposition32Construction runs the reduction in the paper's proof of
// Proposition 3.2: given a program defining a set S and an element a, the
// extended program with S' = σ_{EQ(x,a)}(S) − S' has an initial valid model
// iff a ∉ S.
func TestProposition32Construction(t *testing.T) {
	build := func(moves []datalog.Fact, probe string) (*core.Program, algebra.DB, error) {
		p := WinProgramForTest(moves)
		cp, db, err := DatalogToCore(p)
		if err != nil {
			return nil, nil, err
		}
		// S' = σ_{EQ(x, a)}(win) − S'
		sel := algebra.Select{
			Of:  algebra.Rel{Name: "win"},
			Var: "x",
			Test: algebra.FCmp{Op: builtin.Eq,
				L: algebra.FVar{Name: "x"}, R: algebra.FConst{V: value.String(probe)}},
		}
		cp.Defs = append(cp.Defs, core.Def{Name: "sprime",
			Body: algebra.Diff{L: sel, R: algebra.Rel{Name: "sprime"}}})
		return cp, db, nil
	}
	moves := []datalog.Fact{
		{Pred: "move", Args: []value.Value{value.String("a"), value.String("b")}},
		{Pred: "move", Args: []value.Value{value.String("b"), value.String("c")}},
	}
	// win = {b}; probing with b (∈ S) must be ill-defined, probing with a
	// (∉ S) well-defined with S' empty.
	for _, tc := range []struct {
		probe string
		inS   bool
	}{{"b", true}, {"a", false}} {
		cp, db, err := build(moves, tc.probe)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.EvalValid(cp, db, algebra.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.inS {
			if res.IsTotal("sprime") {
				t.Errorf("probe %s ∈ S: S' should be ill-defined, got %v", tc.probe, res.Set("sprime"))
			}
		} else {
			if !res.IsTotal("sprime") || !res.Set("sprime").IsEmpty() {
				t.Errorf("probe %s ∉ S: S' should be well-defined and empty, got %v (undef %v)",
					tc.probe, res.Set("sprime"), res.UndefElems("sprime"))
			}
		}
	}
}

// WinProgramForTest builds the win-game program over the given move facts.
func WinProgramForTest(moves []datalog.Fact) *datalog.Program {
	p := datalog.MustParse("win(X) :- move(X, Y), not win(Y).\n")
	p.AddFacts(moves...)
	return p
}

var _ = fmt.Sprintf // keep fmt imported for debug messages above
