package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/value"
)

func ints(ns ...int64) value.Set {
	elems := make([]value.Value, len(ns))
	for i, n := range ns {
		elems[i] = value.Int(n)
	}
	return value.NewSet(elems...)
}

func syms(ss ...string) value.Set {
	elems := make([]value.Value, len(ss))
	for i, s := range ss {
		elems[i] = value.String(s)
	}
	return value.NewSet(elems...)
}

func pairs(ps ...[2]string) value.Set {
	elems := make([]value.Value, len(ps))
	for i, p := range ps {
		elems[i] = value.Pair(value.String(p[0]), value.String(p[1]))
	}
	return value.NewSet(elems...)
}

func rel(n string) algebra.Rel { return algebra.Rel{Name: n} }

// winProgram is the paper's Example 3:
// WIN = π1(MOVE − ((π1 MOVE) × WIN)).
func winProgram() *Program {
	body := algebra.Proj(
		algebra.Diff{
			L: rel("move"),
			R: algebra.Product{L: algebra.Proj(rel("move"), 1), R: rel("win")},
		}, 1)
	return &Program{Defs: []Def{{Name: "win", Body: body}}}
}

// TestSelfSubtraction is the paper's S = {a} − S: "the membership status of
// a in S is undefined, and there is no initial valid model."
func TestSelfSubtraction(t *testing.T) {
	a := value.String("a")
	p := &Program{Defs: []Def{{
		Name: "s",
		Body: algebra.Diff{L: algebra.Singleton(a), R: rel("s")},
	}}}
	res, err := EvalValid(p, algebra.DB{}, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Member("s", a); got != Undef {
		t.Errorf("MEM(a, S) = %v, want undef", got)
	}
	if res.WellDefined() {
		t.Error("S = {a} − S should not be well defined")
	}
	if !value.Equal(res.UndefElems("s"), value.NewSet(a)) {
		t.Errorf("UndefElems = %v, want {a}", res.UndefElems("s"))
	}
	// But IFP_{{a}-x} = {a}: the paper's contrast between the equation and
	// the operator (Section 3.2). Inflationary reading of the same equation
	// agrees with the IFP operator.
	infl, err := EvalInflationary(p, algebra.DB{}, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(infl["s"], value.NewSet(a)) {
		t.Errorf("inflationary S = %v, want {a}", infl["s"])
	}
	ifp := algebra.IFP{Var: "x", Body: algebra.Diff{L: algebra.Singleton(a), R: rel("x")}}
	got, err := algebra.Eval(ifp, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, infl["s"]) {
		t.Error("IFP operator and inflationary equation disagree")
	}
}

func TestWinGameAcyclic(t *testing.T) {
	db := algebra.DB{"move": pairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"b", "d"})}
	res, err := EvalValid(winProgram(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WellDefined() {
		t.Fatalf("acyclic WIN should be well defined; undef = %v", res.UndefElems("win"))
	}
	if got := res.Member("win", value.String("b")); got != True {
		t.Errorf("win(b) = %v, want true", got)
	}
	for _, pos := range []string{"a", "c", "d"} {
		if got := res.Member("win", value.String(pos)); got != False {
			t.Errorf("win(%s) = %v, want false", pos, got)
		}
	}
	if !value.Equal(res.Set("win"), syms("b")) {
		t.Errorf("WIN = %v, want {b}", res.Set("win"))
	}
}

// TestWinGameCyclic: "If the MOVE relation contains, for example, the tuple
// [a, a], then the membership status of a in WIN will be undefined."
func TestWinGameCyclic(t *testing.T) {
	db := algebra.DB{"move": pairs([2]string{"a", "a"})}
	res, err := EvalValid(winProgram(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Member("win", value.String("a")); got != Undef {
		t.Errorf("win(a) = %v, want undef", got)
	}
	if res.WellDefined() {
		t.Error("cyclic WIN should not be well defined")
	}
	// With an escape to a lost position, a still wins even on a cycle.
	db2 := algebra.DB{"move": pairs([2]string{"a", "a"}, [2]string{"a", "b"})}
	res2, err := EvalValid(winProgram(), db2, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Member("win", value.String("a")); got != True {
		t.Errorf("win(a) = %v, want true (can move to lost b)", got)
	}
}

// TestEvenNumbers is Example 3's S_c^e = {0} ∪ MAP_{+2}(S_c^e), evaluated on
// a bounded prefix of the naturals; membership is total on the prefix: true
// for even numbers, false for odd ones.
func evenProgram(bound int64) *Program {
	x := algebra.FVar{Name: "x"}
	step := algebra.Map{Of: rel("se"), Var: "x", Out: algebra.FArith{Op: builtin.Plus, L: x, R: algebra.FConst{V: value.Int(2)}}}
	var body algebra.Expr = algebra.Union{L: algebra.Singleton(value.Int(0)), R: step}
	if bound > 0 {
		body = algebra.Select{
			Of:   body,
			Var:  "x",
			Test: algebra.FCmp{Op: builtin.Lt, L: x, R: algebra.FConst{V: value.Int(bound)}},
		}
	}
	return &Program{Defs: []Def{{Name: "se", Body: body}}}
}

func TestEvenNumbers(t *testing.T) {
	res, err := EvalValid(evenProgram(20), algebra.DB{}, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WellDefined() {
		t.Fatal("bounded even-set program should be well defined")
	}
	for i := int64(0); i < 20; i++ {
		want := False
		if i%2 == 0 {
			want = True
		}
		if got := res.Member("se", value.Int(i)); got != want {
			t.Errorf("MEM(%d, S^e) = %v, want %v", i, got, want)
		}
	}
	// Values outside the interned universe are certainly false.
	if got := res.Member("se", value.Int(100)); got != False {
		t.Errorf("MEM(100, S^e) = %v, want false", got)
	}
}

func TestEvenNumbersDiverges(t *testing.T) {
	_, err := EvalValid(evenProgram(0), algebra.DB{}, algebra.Budget{MaxIFPIters: 64, MaxSetSize: 1000})
	if !errors.Is(err, algebra.ErrBudget) {
		t.Fatalf("unbounded even set should exceed budget, got %v", err)
	}
}

// tcEquation builds tc = e ∪ compose(tc, e) — a recursive equation with a
// monotone right-hand side (no subtraction of tc).
func tcEquation(edges string) *Program {
	p := algebra.FVar{Name: "p"}
	join := algebra.Select{
		Of:  algebra.Product{L: rel("tc"), R: rel(edges)},
		Var: "p",
		Test: algebra.FCmp{Op: builtin.Eq,
			L: algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 2},
			R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
	}
	compose := algebra.Map{Of: join, Var: "p", Out: algebra.FTuple{Elems: []algebra.FExpr{
		algebra.FField{Of: algebra.FField{Of: p, Idx: 1}, Idx: 1},
		algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2},
	}}}
	return &Program{Defs: []Def{{Name: "tc", Body: algebra.Union{L: rel(edges), R: compose}}}}
}

// TestProposition34Monotone: for monotone exp, S defined by S = exp(S) and
// IFP_exp agree on membership — both true and false facts.
func TestProposition34Monotone(t *testing.T) {
	db := algebra.DB{"e": pairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})}
	prog := tcEquation("e")
	pos, err := prog.IsPositive()
	if err != nil {
		t.Fatal(err)
	}
	if !pos {
		t.Fatal("tc equation should be positive")
	}
	res, err := EvalValid(prog, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WellDefined() {
		t.Fatal("monotone equation should be well defined")
	}
	// The IFP operator applied to the same body.
	ifp := algebra.IFP{Var: "tc", Body: prog.Defs[0].Body}
	ifpRes, err := algebra.Eval(ifp, db)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Set("tc"), ifpRes) {
		t.Errorf("S = %v but IFP = %v", res.Set("tc"), ifpRes)
	}
	want := pairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"},
		[2]string{"a", "c"}, [2]string{"b", "d"}, [2]string{"a", "d"})
	if !value.Equal(res.Set("tc"), want) {
		t.Errorf("tc = %v, want %v", res.Set("tc"), want)
	}
}

func TestInlineParameterizedDefs(t *testing.T) {
	// Example 3: intersection and xor as defined operations.
	inter := Def{Name: "intersect", Params: []string{"x", "y"},
		Body: algebra.Diff{L: rel("x"), R: algebra.Diff{L: rel("x"), R: rel("y")}}}
	xor := Def{Name: "xor", Params: []string{"x", "y"},
		Body: algebra.Union{
			L: algebra.Diff{L: rel("x"), R: rel("y")},
			R: algebra.Diff{L: rel("y"), R: rel("x")}}}
	p := &Program{Defs: []Def{inter, xor,
		{Name: "q1", Body: algebra.Call{Name: "intersect", Args: []algebra.Expr{rel("r"), rel("s")}}},
		{Name: "q2", Body: algebra.Call{Name: "xor", Args: []algebra.Expr{rel("r"), rel("s")}}},
		{Name: "q3", Body: algebra.Call{Name: "intersect", Args: []algebra.Expr{
			algebra.Call{Name: "xor", Args: []algebra.Expr{rel("r"), rel("s")}}, rel("r")}}},
	}}
	db := algebra.DB{"r": ints(1, 2, 3), "s": ints(2, 3, 4)}
	res, err := EvalValid(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Set("q1"), ints(2, 3)) {
		t.Errorf("intersect = %v", res.Set("q1"))
	}
	if !value.Equal(res.Set("q2"), ints(1, 4)) {
		t.Errorf("xor = %v", res.Set("q2"))
	}
	if !value.Equal(res.Set("q3"), ints(1)) {
		t.Errorf("nested macro = %v", res.Set("q3"))
	}
	// Macros disappear after inlining.
	q, err := p.Inline()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Def("intersect"); ok {
		t.Error("parameterized def should be expanded away")
	}
	for _, d := range q.Defs {
		if len(algebra.CallNames(d.Body)) != 0 {
			t.Errorf("call remains after inlining: %s", d)
		}
	}
}

func TestInlineRejectsRecursiveParams(t *testing.T) {
	p := &Program{Defs: []Def{{
		Name: "f", Params: []string{"x"},
		Body: algebra.Union{L: rel("x"), R: algebra.Call{Name: "f", Args: []algebra.Expr{rel("x")}}},
	}}}
	_, err := p.Inline()
	if !errors.Is(err, ErrRecursiveParams) {
		t.Fatalf("expected ErrRecursiveParams, got %v", err)
	}
	// Mutual recursion through a parameterized def is also rejected.
	p2 := &Program{Defs: []Def{
		{Name: "g", Params: []string{"x"}, Body: rel("h")},
		{Name: "h", Body: algebra.Call{Name: "g", Args: []algebra.Expr{rel("base")}}},
	}}
	if _, err := p2.Inline(); !errors.Is(err, ErrRecursiveParams) {
		t.Fatalf("expected ErrRecursiveParams for mutual recursion, got %v", err)
	}
}

func TestInlineAvoidsCapture(t *testing.T) {
	// f(x) = ifp(t, x ∪ t): substituting an argument that itself mentions a
	// relation named t must not be captured by the binder.
	f := Def{Name: "f", Params: []string{"x"},
		Body: algebra.IFP{Var: "t", Body: algebra.Union{L: rel("x"), R: rel("t")}}}
	// The same call under a flip, under an IFP and in a subtrahend: a
	// captured argument would read the binder (∅) instead of t.
	call := algebra.Call{Name: "f", Args: []algebra.Expr{rel("t")}}
	p := &Program{Defs: []Def{f,
		{Name: "q", Body: call},
		{Name: "qflip", Body: algebra.Flip{E: call}},
		{Name: "qifp", Body: algebra.IFP{Var: "u", Body: algebra.Union{L: call, R: rel("u")}}},
		{Name: "qdiff", Body: algebra.Diff{L: algebra.Lit{Set: ints(5, 6)}, R: call}},
	}}
	db := algebra.DB{"t": ints(5)}
	res, err := EvalValid(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]value.Set{"q": ints(5), "qflip": ints(5), "qifp": ints(5), "qdiff": ints(6)} {
		if !value.Equal(res.Set(name), want) || !res.IsTotal(name) {
			t.Errorf("capture-avoiding inline failed: %s = %v (undef %v), want %v", name, res.Set(name), res.UndefElems(name), want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		p       *Program
		wantSub string
	}{
		{&Program{Defs: []Def{{Name: "a", Body: rel("r")}, {Name: "a", Body: rel("r")}}}, "duplicate"},
		{&Program{Defs: []Def{{Name: "a", Params: []string{"x", "x"}, Body: rel("x")}}}, "repeats parameter"},
		{&Program{Defs: []Def{{Name: "a", Body: algebra.Call{Name: "nosuch"}}}}, "undefined operation"},
		{&Program{Defs: []Def{
			{Name: "f", Params: []string{"x"}, Body: rel("x")},
			{Name: "a", Body: algebra.Call{Name: "f"}},
		}}, "takes 1 arguments"},
		// The call under a flip, under an IFP and in a subtrahend.
		{&Program{Defs: []Def{{Name: "a", Body: algebra.Flip{E: algebra.Call{Name: "nosuch"}}}}}, "undefined operation"},
		{&Program{Defs: []Def{
			{Name: "f", Params: []string{"x"}, Body: rel("x")},
			{Name: "a", Body: algebra.IFP{Var: "v", Body: algebra.Union{L: rel("v"), R: algebra.Call{Name: "f"}}}},
		}}, "takes 1 arguments"},
		{&Program{Defs: []Def{{Name: "a", Body: algebra.Diff{L: rel("r"), R: algebra.Call{Name: "nosuch"}}}}}, "undefined operation"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate: got %v, want error containing %q", err, c.wantSub)
		}
	}
	ok := &Program{Defs: []Def{{Name: "a", Body: algebra.Union{L: rel("r"), R: algebra.EmptyLit}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestMutualRecursion(t *testing.T) {
	// Even/odd positions on a path graph via mutual recursion:
	// even = {start} ∪ step(odd), odd = step(even).
	step := func(src string) algebra.Expr {
		p := algebra.FVar{Name: "p"}
		join := algebra.Select{
			Of:  algebra.Product{L: rel(src), R: rel("e")},
			Var: "p",
			Test: algebra.FCmp{Op: builtin.Eq,
				L: algebra.FField{Of: p, Idx: 1},
				R: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 1}},
		}
		return algebra.Map{Of: join, Var: "p", Out: algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: 2}}
	}
	p := &Program{Defs: []Def{
		{Name: "evenp", Body: algebra.Union{L: algebra.Singleton(value.Int(0)), R: step("oddp")}},
		{Name: "oddp", Body: step("evenp")},
	}}
	db := algebra.DB{"e": value.NewSet(
		value.Pair(value.Int(0), value.Int(1)),
		value.Pair(value.Int(1), value.Int(2)),
		value.Pair(value.Int(2), value.Int(3)),
	)}
	res, err := EvalValid(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WellDefined() {
		t.Fatal("mutual positive recursion should be well defined")
	}
	if !value.Equal(res.Set("evenp"), ints(0, 2)) {
		t.Errorf("even positions = %v, want {0, 2}", res.Set("evenp"))
	}
	if !value.Equal(res.Set("oddp"), ints(1, 3)) {
		t.Errorf("odd positions = %v, want {1, 3}", res.Set("oddp"))
	}
}

func TestIsPositive(t *testing.T) {
	if ok, _ := tcEquation("e").IsPositive(); !ok {
		t.Error("tc equation should be positive")
	}
	if ok, _ := winProgram().IsPositive(); ok {
		t.Error("win program should not be positive (win occurs under subtraction)")
	}
}

func TestQueryLowerUpper(t *testing.T) {
	// Query over a program with an undefined region: q = {a,b} − win where
	// win(a) is undefined and win(b) is false (no moves from b... use a pure
	// cycle on a, plus unrelated b).
	db := algebra.DB{"move": pairs([2]string{"a", "a"})}
	res, err := EvalValid(winProgram(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	q := algebra.Diff{L: algebra.Lit{Set: syms("a", "b")}, R: rel("win")}
	lo, err := res.QueryLower(q)
	if err != nil {
		t.Fatal(err)
	}
	up, err := res.QueryUpper(q)
	if err != nil {
		t.Fatal(err)
	}
	// b is certainly in (win(b) certainly false); a is possible but not
	// certain (win(a) undefined).
	if !value.Equal(lo, syms("b")) {
		t.Errorf("lower = %v, want {b}", lo)
	}
	if !value.Equal(up, syms("a", "b")) {
		t.Errorf("upper = %v, want {a, b}", up)
	}
	// Member on a base relation falls back to the database.
	if res.Member("move", value.Pair(value.String("a"), value.String("a"))) != True {
		t.Error("Member on base relation failed")
	}
	if res.Member("nosuch", value.Int(1)) != False {
		t.Error("Member on unknown name should be false")
	}
}

// TestPropertyPositiveIsWellDefined: a syntactically positive program's
// valid interpretation is two-valued (the model-existence half of Theorem
// 3.1 extended to recursive equations via Proposition 3.4), checked on
// random positive equation systems.
func TestPropertyPositiveIsWellDefined(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		defs := []string{"s0", "s1", "s2"}
		db := algebra.DB{"base": ints(1, 2, 3)}
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
			switch r.Intn(4) {
			case 0:
				return algebra.Union{L: mkExpr(depth - 1), R: mkExpr(depth - 1)}
			case 1:
				// subtraction of a *closed* expression keeps positivity
				return algebra.Diff{L: mkExpr(depth - 1), R: rel("base")}
			case 2:
				x := algebra.FVar{Name: "x"}
				return algebra.Select{Of: mkExpr(depth - 1), Var: "x",
					Test: algebra.FCmp{Op: builtin.Lt, L: x, R: algebra.FConst{V: value.Int(int64(r.Intn(6)))}}}
			default:
				x := algebra.FVar{Name: "x"}
				return algebra.Map{Of: mkExpr(depth - 1), Var: "x",
					Out: algebra.FArith{Op: builtin.Mod, L: x, R: algebra.FConst{V: value.Int(7)}}}
			}
		}
		p := &Program{}
		for _, name := range defs {
			p.Defs = append(p.Defs, Def{Name: name, Body: mkExpr(3)})
		}
		pos, err := p.IsPositive()
		if err != nil || !pos {
			// The generator may place a defined name inside a map/select fed
			// into a Diff-left only; Diff-R is always "base", so positivity
			// must hold by construction.
			t.Logf("seed %d: IsPositive = %v, %v", seed, pos, err)
			return false
		}
		res, err := EvalValid(p, db, algebra.Budget{MaxIFPIters: 2000, MaxSetSize: 10000})
		if err != nil {
			return true // budget blowups are acceptable draws
		}
		if !res.WellDefined() {
			t.Logf("seed %d: positive program not well defined:\n%s", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlipInCore(t *testing.T) {
	// flip(win) under a subtraction reads the same bound as the minuend:
	// q = win − flip(win) is certainly empty even when win has an undefined
	// region, while q' = win − win (no annotation) has an undefined region.
	db := algebra.DB{"move": pairs([2]string{"a", "a"})}
	p := winProgram()
	p.Defs = append(p.Defs,
		Def{Name: "q", Body: algebra.Diff{L: rel("win"), R: algebra.Flip{E: rel("win")}}},
		Def{Name: "qq", Body: algebra.Diff{L: rel("win"), R: rel("win")}},
	)
	res, err := EvalValid(p, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsTotal("q") || !res.Set("q").IsEmpty() {
		t.Errorf("win − flip(win) = %v (undef %v), want certainly empty", res.Set("q"), res.UndefElems("q"))
	}
	if res.IsTotal("qq") {
		t.Error("win − win without annotation should stay undefined on the cycle")
	}
}

// TestPropertyQueryBounds: for any query expression over a program's
// results, the certain answer is contained in the possible answer, and on
// well-defined programs the two coincide.
func TestPropertyQueryBounds(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Win game over a random move relation: sometimes well defined,
		// sometimes not — both cases matter here.
		n := 3 + r.Intn(4)
		var moves []value.Value
		for i := 0; i < 2*n; i++ {
			moves = append(moves, value.Pair(value.Int(int64(r.Intn(n))), value.Int(int64(r.Intn(n)))))
		}
		db := algebra.DB{"move": value.NewSet(moves...)}
		res, err := EvalValid(winProgram(), db, algebra.Budget{})
		if err != nil {
			return false
		}
		// A query mixing the defined set positively and negatively.
		q := algebra.Union{
			L: algebra.Diff{L: algebra.Proj(rel("move"), 2), R: rel("win")},
			R: algebra.Select{Of: rel("win"), Var: "x",
				Test: algebra.FCmp{Op: builtin.Lt, L: algebra.FVar{Name: "x"}, R: algebra.FConst{V: value.Int(int64(n / 2))}}},
		}
		lo, err := res.QueryLower(q)
		if err != nil {
			return false
		}
		up, err := res.QueryUpper(q)
		if err != nil {
			return false
		}
		if !lo.Subset(up) {
			t.Logf("seed %d: lower %v not within upper %v", seed, lo, up)
			return false
		}
		if res.WellDefined() && !value.Equal(lo, up) {
			t.Logf("seed %d: well-defined program but query bounds differ: %v vs %v", seed, lo, up)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefString(t *testing.T) {
	d := Def{Name: "f", Params: []string{"x", "y"}, Body: algebra.Union{L: rel("x"), R: rel("y")}}
	if got := d.String(); got != "def f(x, y) = union(x, y);" {
		t.Errorf("Def.String = %q", got)
	}
	c := Def{Name: "s", Body: rel("r")}
	if got := c.String(); got != "def s = r;" {
		t.Errorf("constant Def.String = %q", got)
	}
	p := &Program{Defs: []Def{c}}
	if got := p.String(); got != "def s = r;\n" {
		t.Errorf("Program.String = %q", got)
	}
	if got := strings.Join(p.DefNames(), ","); got != "s" {
		t.Errorf("DefNames = %q", got)
	}
}
