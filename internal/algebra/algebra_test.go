package algebra

import (
	"errors"
	"strings"
	"testing"

	"algrec/internal/value"
)

func ints(ns ...int64) value.Set {
	elems := make([]value.Value, len(ns))
	for i, n := range ns {
		elems[i] = value.Int(n)
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

func x() FVar { return FVar{Name: "x"} }

func TestEvalBasicOperators(t *testing.T) {
	db := DB{"r": ints(1, 2, 3), "s": ints(3, 4)}
	cases := []struct {
		e    Expr
		want value.Set
	}{
		{Rel{Name: "r"}, ints(1, 2, 3)},
		{Lit{Set: ints(9)}, ints(9)},
		{EmptyLit, value.EmptySet},
		{Union{L: Rel{Name: "r"}, R: Rel{Name: "s"}}, ints(1, 2, 3, 4)},
		{Diff{L: Rel{Name: "r"}, R: Rel{Name: "s"}}, ints(1, 2)},
		{Diff{L: Rel{Name: "s"}, R: Rel{Name: "r"}}, ints(4)},
		{Select{Of: Rel{Name: "r"}, Var: "x", Test: FCmp{Op: OpGe, L: x(), R: FConst{V: value.Int(2)}}}, ints(2, 3)},
		{Map{Of: Rel{Name: "r"}, Var: "x", Out: FArith{Op: OpTimes, L: x(), R: FConst{V: value.Int(10)}}}, ints(10, 20, 30)},
	}
	for _, c := range cases {
		got, err := Eval(c.e, db)
		if err != nil {
			t.Errorf("Eval(%s): %v", c.e, err)
			continue
		}
		if !value.Equal(got, c.want) {
			t.Errorf("Eval(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalProduct(t *testing.T) {
	db := DB{"a": ints(1, 2), "b": ints(7)}
	got, err := Eval(Product{L: Rel{Name: "a"}, R: Rel{Name: "b"}}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(value.Pair(value.Int(1), value.Int(7)), value.Pair(value.Int(2), value.Int(7)))
	if !value.Equal(got, want) {
		t.Errorf("product = %v, want %v", got, want)
	}
}

func TestEvalProj(t *testing.T) {
	db := DB{"move": pairs([2]string{"a", "b"}, [2]string{"b", "c"})}
	got, err := Eval(Proj(Rel{Name: "move"}, 1), db)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(value.String("a"), value.String("b"))
	if !value.Equal(got, want) {
		t.Errorf("pi_1(move) = %v, want %v", got, want)
	}
}

// TestEvalIFPTransitiveClosure: the standard IFP use: TC of a relation.
// exp(x) = move ∪ { (a,c) | (a,b) ∈ x, (b,c) ∈ move } expressed with
// product, select and map.
func tcExpr(edges string) Expr {
	joinVar := FVar{Name: "p"}
	// p ranges over pairs ((a,b),(b',c)) from x × edges
	join := Select{
		Of:  Product{L: Rel{Name: "x"}, R: Rel{Name: edges}},
		Var: "p",
		Test: FCmp{Op: OpEq,
			L: FField{Of: FField{Of: joinVar, Idx: 1}, Idx: 2},
			R: FField{Of: FField{Of: joinVar, Idx: 2}, Idx: 1}},
	}
	compose := Map{
		Of:  join,
		Var: "p",
		Out: FTuple{Elems: []FExpr{
			FField{Of: FField{Of: joinVar, Idx: 1}, Idx: 1},
			FField{Of: FField{Of: joinVar, Idx: 2}, Idx: 2},
		}},
	}
	return IFP{Var: "x", Body: Union{L: Rel{Name: edges}, R: compose}}
}

func TestEvalIFPTransitiveClosure(t *testing.T) {
	db := DB{"move": pairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})}
	got, err := Eval(tcExpr("move"), db)
	if err != nil {
		t.Fatal(err)
	}
	want := pairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"},
		[2]string{"a", "c"}, [2]string{"b", "d"}, [2]string{"a", "d"},
	)
	if !value.Equal(got, want) {
		t.Errorf("tc = %v, want %v", got, want)
	}
}

// TestEvalIFPNonMonotone is the paper's Section 3.2 example: IFP_{{a}−x}
// evaluates to {a} under the inflationary interpretation ("({a}−EMPTY) ∪
// ({a}−({a}−EMPTY)) ∪ ... = {a}"), even though the expression is not
// monotone.
func TestEvalIFPNonMonotone(t *testing.T) {
	a := value.String("a")
	e := IFP{Var: "x", Body: Diff{L: Singleton(a), R: Rel{Name: "x"}}}
	got, err := Eval(e, DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.NewSet(a)) {
		t.Errorf("IFP_{{a}-x} = %v, want {a}", got)
	}
	if IsPositiveIFP(e) {
		t.Error("IFP_{{a}-x} should not be positive")
	}
}

// TestEvalEvenNumbersBounded: Example 1/3's S^e = {0} ∪ MAP_{+2}(S^e); the
// unbounded fixpoint is the infinite set of even numbers, so IFP with a
// bound selection yields its finite prefix, and without a bound the budget
// fires.
func evenExpr(bound int64) Expr {
	step := Map{Of: Rel{Name: "s"}, Var: "x", Out: FArith{Op: OpPlus, L: x(), R: FConst{V: value.Int(2)}}}
	var body Expr = Union{L: Singleton(value.Int(0)), R: step}
	if bound > 0 {
		body = Select{Of: body, Var: "x", Test: FCmp{Op: OpLt, L: x(), R: FConst{V: value.Int(bound)}}}
	}
	return IFP{Var: "s", Body: body}
}

func TestEvalEvenNumbersBounded(t *testing.T) {
	got, err := Eval(evenExpr(10), DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, ints(0, 2, 4, 6, 8)) {
		t.Errorf("bounded evens = %v", got)
	}
	// MEM is total on the result: every even < 10 in, every odd out.
	for i := int64(0); i < 10; i++ {
		if got.Has(value.Int(i)) != (i%2 == 0) {
			t.Errorf("membership of %d wrong", i)
		}
	}
}

func TestEvalEvenNumbersDiverges(t *testing.T) {
	ev := NewEvaluator(DB{}, Budget{MaxIFPIters: 50})
	_, err := ev.Eval(evenExpr(0))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "IFP") {
		t.Errorf("error %q should mention IFP", err)
	}
}

func TestEvalSetSizeBudget(t *testing.T) {
	db := DB{"r": ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)}
	ev := NewEvaluator(db, Budget{MaxSetSize: 50})
	_, err := ev.Eval(Product{L: Product{L: Rel{Name: "r"}, R: Rel{Name: "r"}}, R: Rel{Name: "r"}})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestEvalErrors(t *testing.T) {
	db := DB{"r": ints(1)}
	cases := []Expr{
		Rel{Name: "nosuch"},
		Call{Name: "f"},
		Select{Of: Rel{Name: "r"}, Var: "x", Test: x()},                                        // non-boolean test
		Map{Of: Rel{Name: "r"}, Var: "x", Out: FField{Of: x(), Idx: 1}},                        // project non-tuple
		Select{Of: Rel{Name: "r"}, Var: "x", Test: FCmp{Op: OpEq, L: FVar{Name: "y"}, R: x()}}, // unbound var
	}
	for _, e := range cases {
		if _, err := Eval(e, db); err == nil {
			t.Errorf("Eval(%s): expected error", e)
		}
	}
}

func TestEvalFOperators(t *testing.T) {
	env := FEnv{"x": value.Int(6), "t": value.NewTuple(value.Int(1), value.String("a"))}
	cases := []struct {
		e    FExpr
		want value.Value
	}{
		{FArith{Op: OpPlus, L: x(), R: FConst{V: value.Int(2)}}, value.Int(8)},
		{FArith{Op: OpMinus, L: x(), R: FConst{V: value.Int(2)}}, value.Int(4)},
		{FArith{Op: OpTimes, L: x(), R: x()}, value.Int(36)},
		{FArith{Op: OpMod, L: x(), R: FConst{V: value.Int(4)}}, value.Int(2)},
		{FAnd{L: FConst{V: value.True}, R: FConst{V: value.False}}, value.False},
		{FOr{L: FConst{V: value.False}, R: FConst{V: value.True}}, value.True},
		{FNot{E: FConst{V: value.False}}, value.True},
		{FField{Of: FVar{Name: "t"}, Idx: 2}, value.String("a")},
		{FTuple{Elems: []FExpr{x(), x()}}, value.Pair(value.Int(6), value.Int(6))},
		{FMem{Elem: FConst{V: value.Int(1)}, Set: FConst{V: ints(1, 2)}}, value.True},
		{FMem{Elem: FConst{V: value.Int(9)}, Set: FConst{V: ints(1, 2)}}, value.False},
		{FCmp{Op: OpNe, L: x(), R: FConst{V: value.Int(6)}}, value.False},
	}
	for _, c := range cases {
		got, err := EvalF(c.e, env)
		if err != nil {
			t.Errorf("EvalF(%s): %v", c.e, err)
			continue
		}
		if !value.Equal(got, c.want) {
			t.Errorf("EvalF(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalFShortCircuit(t *testing.T) {
	// And/Or short-circuit: the bad right operand is never evaluated.
	bad := FField{Of: FConst{V: value.Int(1)}, Idx: 1}
	if v, err := EvalF(FAnd{L: FConst{V: value.False}, R: bad}, nil); err != nil || !value.Equal(v, value.False) {
		t.Errorf("FAnd short-circuit: %v, %v", v, err)
	}
	if v, err := EvalF(FOr{L: FConst{V: value.True}, R: bad}, nil); err != nil || !value.Equal(v, value.True) {
		t.Errorf("FOr short-circuit: %v, %v", v, err)
	}
}

func TestEvalFErrors(t *testing.T) {
	cases := []FExpr{
		FVar{Name: "unbound"},
		FField{Of: FConst{V: value.Int(1)}, Idx: 1},
		FField{Of: FConst{V: value.NewTuple(value.Int(1))}, Idx: 3},
		FArith{Op: OpPlus, L: FConst{V: value.String("a")}, R: FConst{V: value.Int(1)}},
		FArith{Op: OpMod, L: FConst{V: value.Int(1)}, R: FConst{V: value.Int(0)}},
		FAnd{L: FConst{V: value.Int(1)}, R: FConst{V: value.True}},
		FNot{E: FConst{V: value.Int(0)}},
		FMem{Elem: FConst{V: value.Int(1)}, Set: FConst{V: value.Int(2)}},
	}
	for _, e := range cases {
		if _, err := EvalF(e, FEnv{}); err == nil {
			t.Errorf("EvalF(%s): expected error", e)
		}
	}
}

func TestFreeRelsAndCallNames(t *testing.T) {
	e := Union{
		L: IFP{Var: "x", Body: Union{L: Rel{Name: "base"}, R: Rel{Name: "x"}}},
		R: Call{Name: "f", Args: []Expr{Rel{Name: "arg"}}},
	}
	if got := strings.Join(FreeRels(e), ","); got != "arg,base" {
		t.Errorf("FreeRels = %s, want arg,base", got)
	}
	if got := strings.Join(CallNames(e), ","); got != "f" {
		t.Errorf("CallNames = %s, want f", got)
	}
	// Position cases: an IFP binder scopes over its own body only, not over
	// a right sibling; walks reach into Call arguments and Flip operands.
	tcx := IFP{Var: "x", Body: Union{L: Rel{Name: "base"}, R: Rel{Name: "x"}}}
	cases := []struct {
		e           Expr
		rels, calls string
	}{
		{Union{L: tcx, R: Rel{Name: "x"}}, "base,x", ""},
		{Product{L: tcx, R: Rel{Name: "r"}}, "base,r", ""},
		{Diff{L: Rel{Name: "r"}, R: tcx}, "base,r", ""},
		{Call{Name: "f", Args: []Expr{tcx, Rel{Name: "x"}}}, "base,x", "f"},
		{IFP{Var: "y", Body: Call{Name: "g", Args: []Expr{Rel{Name: "y"}, Call{Name: "h"}}}}, "", "g,h"},
		{Product{L: Flip{E: Rel{Name: "a"}}, R: Call{Name: "f"}}, "a", "f"},
		{Map{Of: Select{Of: tcx, Var: "x", Test: FConst{V: value.True}}, Var: "x", Out: x()}, "base", ""},
	}
	for _, c := range cases {
		if got := strings.Join(FreeRels(c.e), ","); got != c.rels {
			t.Errorf("FreeRels(%s) = %s, want %s", c.e, got, c.rels)
		}
		if got := strings.Join(CallNames(c.e), ","); got != c.calls {
			t.Errorf("CallNames(%s) = %s, want %s", c.e, got, c.calls)
		}
	}
}

func TestOccursPositively(t *testing.T) {
	s := Rel{Name: "s"}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Union{L: s, R: Lit{}}, true},
		{Diff{L: s, R: Lit{}}, true},
		{Diff{L: Lit{}, R: s}, false},
		{Diff{L: Lit{}, R: Diff{L: Lit{}, R: s}}, true}, // double negation
		{Product{L: s, R: s}, true},
		{Select{Of: s, Var: "x", Test: FConst{V: value.True}}, true},
		{Map{Of: Diff{L: Lit{}, R: s}, Var: "x", Out: x()}, false},
		{IFP{Var: "s", Body: Diff{L: Lit{}, R: s}}, true}, // bound occurrence
		{IFP{Var: "y", Body: Diff{L: Rel{Name: "y"}, R: s}}, false},
		{Call{Name: "f", Args: []Expr{s}}, false}, // unknown polarity under call
		{Call{Name: "f", Args: []Expr{Rel{Name: "other"}}}, true},
		// Position cases: a negative IFP in the left operand with a plain
		// right sibling, a binder that shadows s on the left only, a Flip
		// inside a product operand, and an IFP inside a call argument.
		{Union{L: IFP{Var: "y", Body: Diff{L: Rel{Name: "y"}, R: s}}, R: s}, false},
		{Product{L: IFP{Var: "y", Body: Union{L: Rel{Name: "y"}, R: s}}, R: s}, true},
		{Union{L: IFP{Var: "s", Body: Diff{L: Lit{}, R: s}}, R: s}, true},
		{Union{L: IFP{Var: "s", Body: s}, R: Diff{L: Lit{}, R: s}}, false},
		{Product{L: Flip{E: s}, R: Lit{}}, false},
		{Diff{L: Lit{}, R: Product{L: Flip{E: s}, R: Lit{}}}, true},
		{Diff{L: Lit{}, R: Product{L: Lit{}, R: s}}, false},
		{Call{Name: "f", Args: []Expr{IFP{Var: "y", Body: Rel{Name: "y"}}}}, true},
		{Call{Name: "f", Args: []Expr{IFP{Var: "y", Body: Union{L: Rel{Name: "y"}, R: s}}}}, false},
		{Call{Name: "f", Args: []Expr{IFP{Var: "s", Body: s}}}, true},
	}
	for _, c := range cases {
		if got := OccursPositively(c.e, "s"); got != c.want {
			t.Errorf("OccursPositively(%s, s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIsPositiveIFPAndHasIFP(t *testing.T) {
	tc := tcExpr("move")
	if !IsPositiveIFP(tc) {
		t.Error("TC expression should be positive IFP")
	}
	if !HasIFP(tc) {
		t.Error("TC expression contains IFP")
	}
	nonPos := IFP{Var: "x", Body: Diff{L: Singleton(value.String("a")), R: Rel{Name: "x"}}}
	if IsPositiveIFP(nonPos) {
		t.Error("{a}-x IFP should not be positive")
	}
	plain := Union{L: Rel{Name: "r"}, R: Rel{Name: "s"}}
	if HasIFP(plain) {
		t.Error("plain union has no IFP")
	}
	if !IsPositiveIFP(plain) {
		t.Error("expression with no IFP is vacuously positive")
	}
	// Position cases: the IFP sits in a left operand with a plain right
	// sibling, in a right operand, under a Flip in a product operand, inside
	// a call argument, or nested in a positive IFP's body.
	r := Rel{Name: "r"}
	cases := []struct {
		e             Expr
		positive, has bool
	}{
		{Union{L: tc, R: r}, true, true},
		{Union{L: nonPos, R: r}, false, true},
		{Product{L: nonPos, R: r}, false, true},
		{Product{L: tc, R: r}, true, true},
		{Diff{L: r, R: nonPos}, false, true},
		{Product{L: Flip{E: nonPos}, R: r}, false, true},
		{Product{L: Flip{E: r}, R: r}, true, false},
		{Call{Name: "f", Args: []Expr{nonPos}}, false, true},
		{Call{Name: "f", Args: []Expr{r, tc}}, true, true},
		{Call{Name: "f", Args: []Expr{r}}, true, false},
		{IFP{Var: "y", Body: Union{L: Rel{Name: "y"}, R: nonPos}}, false, true},
		{IFP{Var: "y", Body: Union{L: Lit{}, R: Flip{E: Rel{Name: "y"}}}}, false, true},
		{Select{Of: Map{Of: nonPos, Var: "x", Out: x()}, Var: "x", Test: FConst{V: value.True}}, false, true},
	}
	for _, c := range cases {
		if got := IsPositiveIFP(c.e); got != c.positive {
			t.Errorf("IsPositiveIFP(%s) = %v, want %v", c.e, got, c.positive)
		}
		if got := HasIFP(c.e); got != c.has {
			t.Errorf("HasIFP(%s) = %v, want %v", c.e, got, c.has)
		}
	}
}

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Rel{Name: "r"}, "r"},
		{Singleton(value.Int(0)), "{0}"},
		{Union{L: Rel{Name: "a"}, R: Rel{Name: "b"}}, "union(a, b)"},
		{Diff{L: Rel{Name: "a"}, R: Rel{Name: "b"}}, "diff(a, b)"},
		{Product{L: Rel{Name: "a"}, R: Rel{Name: "b"}}, "product(a, b)"},
		{Select{Of: Rel{Name: "a"}, Var: "x", Test: FCmp{Op: OpLt, L: x(), R: FConst{V: value.Int(3)}}}, `select(a, \x -> x < 3)`},
		{Map{Of: Rel{Name: "a"}, Var: "x", Out: FField{Of: x(), Idx: 1}}, `map(a, \x -> x.1)`},
		{IFP{Var: "x", Body: Union{L: Rel{Name: "e"}, R: Rel{Name: "x"}}}, "ifp(x, union(e, x))"},
		{Call{Name: "f", Args: []Expr{Rel{Name: "a"}, Rel{Name: "b"}}}, "f(a, b)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestCallRejected(t *testing.T) {
	// Definitions live in internal/core, which inlines every call before it
	// evaluates; a bare evaluator has none in scope and rejects a Call.
	db := DB{"r": ints(1, 2, 3)}
	_, err := NewEvaluator(db, Budget{}).Eval(Union{L: Rel{Name: "r"}, R: Call{Name: "double", Args: []Expr{Rel{Name: "r"}}}})
	if err == nil || !strings.Contains(err.Error(), `call to "double"`) {
		t.Errorf("Eval of a call = %v, want a call error", err)
	}
}

func TestFlip(t *testing.T) {
	// Two-valued evaluation: Flip is the identity.
	db := DB{"r": ints(1, 2, 3)}
	got, err := Eval(Flip{E: Rel{Name: "r"}}, db)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, ints(1, 2, 3)) {
		t.Errorf("Flip eval = %v", got)
	}
	fl := Flip{E: Rel{Name: "r"}}
	if fl.String() != "flip(r)" {
		t.Errorf("Flip.String = %q", fl.String())
	}
	// Polarity analysis: Flip restores polarity under a subtraction.
	s := Rel{Name: "s"}
	if !OccursPositively(Diff{L: Lit{}, R: Flip{E: s}}, "s") {
		t.Error("s under Diff-R inside Flip should count as positive")
	}
	if OccursPositively(Flip{E: s}, "s") {
		t.Error("s directly under Flip at top level flips to negative")
	}
	// Walkers traverse Flip.
	e := Flip{E: Union{L: s, R: Call{Name: "f"}}}
	if got := strings.Join(FreeRels(e), ","); got != "s" {
		t.Errorf("FreeRels through Flip = %s", got)
	}
	if got := strings.Join(CallNames(e), ","); got != "f" {
		t.Errorf("CallNames through Flip = %s", got)
	}
	if HasIFP(e) {
		t.Error("HasIFP through Flip wrong")
	}
	if !HasIFP(Flip{E: IFP{Var: "x", Body: Rel{Name: "x"}}}) {
		t.Error("HasIFP should see IFP inside Flip")
	}
	// With the Pos/Neg overlays set, a name inside an odd number of flips
	// and subtrahends reads Neg, any other Pos; names the overlays lack and
	// IFP variables read DB and the local binding at either polarity.
	ev := NewEvaluator(DB{"s": ints(9), "r": ints(1, 2, 3)}, Budget{})
	ev.Pos, ev.Neg = map[string]value.Set{"s": ints(1)}, map[string]value.Set{"s": ints(2)}
	for _, c := range []struct {
		e    Expr
		want value.Set
	}{
		{s, ints(1)},
		{Flip{E: s}, ints(2)},
		{Flip{E: Flip{E: s}}, ints(1)},
		{Diff{L: Rel{Name: "r"}, R: s}, ints(1, 3)},
		{Diff{L: Rel{Name: "r"}, R: Flip{E: s}}, ints(2, 3)},
		{Diff{L: Rel{Name: "r"}, R: Diff{L: Rel{Name: "r"}, R: s}}, ints(1)},
		{Flip{E: Union{L: Rel{Name: "r"}, R: IFP{Var: "s", Body: Union{L: s, R: Lit{Set: ints(4)}}}}}, ints(1, 2, 3, 4)},
	} {
		if got, err := ev.Eval(c.e); err != nil || !value.Equal(got, c.want) {
			t.Errorf("overlay Eval(%s) = %v, %v; want %v", c.e, got, err, c.want)
		}
	}
}

func TestIFPShadowsOuterBinding(t *testing.T) {
	// Nested IFPs with the same variable name: inner binding shadows outer.
	inner := IFP{Var: "x", Body: Union{L: Singleton(value.Int(1)), R: Rel{Name: "x"}}}
	outer := IFP{Var: "x", Body: Union{L: inner, R: Rel{Name: "x"}}}
	got, err := Eval(outer, DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, ints(1)) {
		t.Errorf("nested IFP = %v, want {1}", got)
	}
}

func TestIntersectionViaExample3(t *testing.T) {
	// Example 3: x ∩ y = x − (x − y) as an algebra expression.
	db := DB{"x": ints(1, 2, 3), "y": ints(2, 3, 4)}
	e := Diff{L: Rel{Name: "x"}, R: Diff{L: Rel{Name: "x"}, R: Rel{Name: "y"}}}
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, ints(2, 3)) {
		t.Errorf("intersection = %v", got)
	}
	// xor: (x − y) ∪ (y − x)
	e2 := Union{L: Diff{L: Rel{Name: "x"}, R: Rel{Name: "y"}}, R: Diff{L: Rel{Name: "y"}, R: Rel{Name: "x"}}}
	got2, err := Eval(e2, db)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got2, ints(1, 4)) {
		t.Errorf("xor = %v", got2)
	}
}
