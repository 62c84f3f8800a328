package datalog

import (
	"strings"
	"testing"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

func TestParseFactsAndRules(t *testing.T) {
	src := `
% transitive closure
edge(1, 2). edge(2, 3).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
win(X) :- move(X, Y), not win(Y).
big(Y) :- num(X), Y = plus(X, 10), Y >= 12.
str("hello world").
sym(paris, "Tel Aviv").
boolean(true). boolean(false).
zero :- not one.
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 11 {
		t.Fatalf("got %d rules, want 11", len(p.Rules))
	}
	if !p.Rules[0].IsFact() {
		t.Error("edge(1,2) should be a fact")
	}
	if got := p.Rules[2].String(); got != "tc(X, Y) :- edge(X, Y)." {
		t.Errorf("rule 2 prints as %q", got)
	}
	if got := p.Rules[4].String(); got != "win(X) :- move(X, Y), not win(Y)." {
		t.Errorf("win rule prints as %q", got)
	}
	if got := p.Rules[5].String(); got != "big(Y) :- num(X), Y = plus(X, 10), Y >= 12." {
		t.Errorf("big rule prints as %q", got)
	}
	if got := p.Rules[10].String(); got != "zero :- not one." {
		t.Errorf("zero-arity rule prints as %q", got)
	}
	// Constants carried the right values.
	f := p.Rules[6].Head
	if c, ok := f.Args[0].(Const); !ok || !value.Equal(c.V, value.String("hello world")) {
		t.Errorf("string constant parsed as %v", f.Args[0])
	}
	b := p.Rules[8].Head
	if c, ok := b.Args[0].(Const); !ok || !value.Equal(c.V, value.True) {
		t.Errorf("boolean constant parsed as %v", b.Args[0])
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"edge(1, 2).\n",
		"tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
		"win(X) :- move(X, Y), not win(Y).\n",
		"p(X) :- d(X), X != 3.\n",
		"q(Y) :- d(X), Y = plus(X, 1), Y < 10.\n",
		"r(X) :- d(X), fst(X) = 1.\n",
		"t(X) :- d(X), X = tup(1, a).\n",
		"neg(-5).\n",
	}
	for _, src := range srcs {
		p, err := ParseProgram(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if got := p.String(); got != src {
			t.Errorf("round trip: %q -> %q", src, got)
			continue
		}
		// Re-parse the printed form and print again: must be a fixpoint.
		p2, err := ParseProgram(p.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", p.String(), err)
			continue
		}
		if p2.String() != p.String() {
			t.Errorf("print not stable: %q vs %q", p2.String(), p.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"p(X)", "expected '.' or ':-'"},
		{"p(X) :- q(X)", "expected '.'"},
		{"p(X :- q(X).", "expected ')'"},
		{"p(X) :- unknownfn(X) = Y.", "unknown function symbol"},
		{"p(X) :- Y = unknownfn(X).", "unknown function symbol"},
		{"p(Y) :- r(X), Y = plus(X).", "1:19: plus expects 2 arguments, got 1"},
		{"p(Y) :- r(X), succ(X, X) = Y.", "1:15: succ expects 1 argument, got 2"},
		{"p(bnot(1, 2)).", "1:3: bnot expects 1 argument, got 2"},
		{`p("unterminated`, "unterminated string"},
		{"p(-).", "expected digit after '-'"},
		{"p(X) : q(X).", "unexpected ':'"},
		{"p(!X).", "unexpected '!'"},
		{"p(#).", "unexpected character"},
		{"p(X) :- q(X), .", "expected a term"},
		{"1(X).", "expected identifier"},
	}
	for _, c := range cases {
		_, err := ParseProgram(c.src)
		if err == nil {
			t.Errorf("parse %q: expected error containing %q, got nil", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("parse %q: error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseTupleAndSetLiterals(t *testing.T) {
	p := MustParse(`
pair((a, 1)).
nested(((1, 2), 3)).
sets({1, 2}, {}).
mix(X, (X, {a})) :- d(X).
d(1).
`)
	f0, err := EvalGroundAtom(p.Rules[0].Head, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(f0.Args[0], value.Pair(value.String("a"), value.Int(1))) {
		t.Errorf("pair constant = %v", f0.Args[0])
	}
	f1, err := EvalGroundAtom(p.Rules[1].Head, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := value.Pair(value.Pair(value.Int(1), value.Int(2)), value.Int(3))
	if !value.Equal(f1.Args[0], want) {
		t.Errorf("nested tuple = %v", f1.Args[0])
	}
	f2, err := EvalGroundAtom(p.Rules[2].Head, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(f2.Args[0], value.NewSet(value.Int(1), value.Int(2))) || !value.Equal(f2.Args[1], value.EmptySet) {
		t.Errorf("set literals = %v", f2.Args)
	}
	// Tuple literals may contain variables (they are tup(...) applications).
	b := Binding{"X": value.Int(7)}
	f3, err := EvalGroundAtom(p.Rules[3].Head, b)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(f3.Args[1], value.Pair(value.Int(7), value.NewSet(value.String("a")))) {
		t.Errorf("tuple with variable = %v", f3.Args[1])
	}
}

// TestFactRoundTripThroughPrinting: facts with tuple and set constants print
// and re-parse to the same values — required for algtrans output fidelity.
func TestFactRoundTripThroughPrinting(t *testing.T) {
	p := &Program{}
	p.AddFacts(
		Fact{Pred: "m", Args: []value.Value{value.Pair(value.String("a"), value.Int(1))}},
		Fact{Pred: "s", Args: []value.Value{value.NewSet(value.Int(1), value.NewTuple(value.Int(2), value.Int(3)))}},
		Fact{Pred: "u", Args: []value.Value{value.NewTuple()}},
	)
	printed := p.String()
	p2, err := ParseProgram(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, printed)
	}
	for i := range p.Rules {
		f1, err1 := EvalGroundAtom(p.Rules[i].Head, nil)
		f2, err2 := EvalGroundAtom(p2.Rules[i].Head, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval: %v %v", err1, err2)
		}
		if f1.Key() != f2.Key() {
			t.Errorf("round trip changed fact: %s vs %s", f1.Key(), f2.Key())
		}
	}
}

func TestParseComments(t *testing.T) {
	p, err := ParseProgram("% nothing here\n% more\np(1). % trailing\n%final")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(p.Rules))
	}
}

func TestEvalTerm(t *testing.T) {
	b := Binding{"X": value.Int(4), "T": value.NewTuple(value.Int(7), value.String("a"))}
	cases := []struct {
		t    Term
		want value.Value
	}{
		{CInt(3), value.Int(3)},
		{Var("X"), value.Int(4)},
		{Apply{Fn: "plus", Args: []Term{Var("X"), CInt(1)}}, value.Int(5)},
		{Apply{Fn: "succ", Args: []Term{Var("X")}}, value.Int(5)},
		{Apply{Fn: "times", Args: []Term{Var("X"), Var("X")}}, value.Int(16)},
		{Apply{Fn: "mod", Args: []Term{Var("X"), CInt(3)}}, value.Int(1)},
		{Apply{Fn: "fst", Args: []Term{Var("T")}}, value.Int(7)},
		{Apply{Fn: "snd", Args: []Term{Var("T")}}, value.String("a")},
		{Apply{Fn: "field", Args: []Term{Var("T"), CInt(2)}}, value.String("a")},
		{Apply{Fn: "tup", Args: []Term{CInt(1), CInt(2)}}, value.Pair(value.Int(1), value.Int(2))},
		{Apply{Fn: "set", Args: []Term{CInt(2), CInt(1), CInt(2)}}, value.NewSet(value.Int(1), value.Int(2))},
		{Apply{Fn: "ins", Args: []Term{CInt(3), Apply{Fn: "set", Args: []Term{CInt(1)}}}}, value.NewSet(value.Int(1), value.Int(3))},
	}
	for _, c := range cases {
		got, err := EvalTerm(c.t, b)
		if err != nil {
			t.Errorf("EvalTerm(%s): %v", c.t, err)
			continue
		}
		if !value.Equal(got, c.want) {
			t.Errorf("EvalTerm(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEvalTermErrors(t *testing.T) {
	cases := []Term{
		Var("Unbound"),
		Apply{Fn: "nosuch", Args: []Term{CInt(1)}},
		Apply{Fn: "plus", Args: []Term{CInt(1)}},
		Apply{Fn: "plus", Args: []Term{CInt(1), CSym("a")}},
		Apply{Fn: "mod", Args: []Term{CInt(1), CInt(0)}},
		Apply{Fn: "fst", Args: []Term{CInt(1)}},
		Apply{Fn: "field", Args: []Term{Apply{Fn: "tup", Args: []Term{CInt(1)}}, CInt(5)}},
		Apply{Fn: "ins", Args: []Term{CInt(1), CInt(2)}},
	}
	for _, tt := range cases {
		if _, err := EvalTerm(tt, Binding{}); err == nil {
			t.Errorf("EvalTerm(%s): expected error", tt)
		}
	}
}

func TestProgramPredSets(t *testing.T) {
	p := MustParse(`
edge(1, 2).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
top(X) :- node(X), not tc(X, X).
node(1).
`)
	if got, want := strings.Join(p.Preds(), ","), "edge,node,tc,top"; got != want {
		t.Errorf("Preds = %s, want %s", got, want)
	}
	if got, want := strings.Join(p.IDB(), ","), "tc,top"; got != want {
		t.Errorf("IDB = %s, want %s", got, want)
	}
	if got, want := strings.Join(p.EDB(), ","), "edge,node"; got != want {
		t.Errorf("EDB = %s, want %s", got, want)
	}
}

func TestFactKeyAndSort(t *testing.T) {
	fs := []Fact{
		{Pred: "q", Args: []value.Value{value.Int(1)}},
		{Pred: "p", Args: []value.Value{value.Int(2)}},
		{Pred: "p", Args: []value.Value{value.Int(1)}},
		{Pred: "p", Args: []value.Value{value.Int(1), value.Int(0)}},
	}
	SortFacts(fs)
	want := []string{"p(1)", "p(1, 0)", "p(2)", "q(1)"}
	for i, f := range fs {
		if f.Key() != want[i] {
			t.Errorf("sorted[%d] = %s, want %s", i, f.Key(), want[i])
		}
	}
}

func TestSubst(t *testing.T) {
	b := map[Var]Term{"X": CInt(1)}
	r := Rule{
		Head: Atom{Pred: "p", Args: []Term{Var("X"), Var("Y")}},
		Body: []Literal{Pos("q", Apply{Fn: "succ", Args: []Term{Var("X")}}), Cmp(builtin.Ne, Var("X"), Var("Y"))},
	}
	h := SubstAtom(r.Head, b)
	if h.String() != "p(1, Y)" {
		t.Errorf("SubstAtom = %s", h)
	}
	l0 := SubstLiteral(r.Body[0], b)
	if l0.String() != "q(succ(1))" {
		t.Errorf("SubstLiteral = %s", l0)
	}
	l1 := SubstLiteral(r.Body[1], b)
	if l1.String() != "1 != Y" {
		t.Errorf("SubstLiteral = %s", l1)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse("p(X) :- q(X).\n")
	q := p.Clone()
	q.Rules[0].Head.Pred = "changed"
	q.Rules[0].Body[0] = Pos("other", Var("X"))
	if p.Rules[0].Head.Pred != "p" || p.Rules[0].Body[0].String() != "q(X)" {
		t.Error("Clone shares mutable state with original")
	}
}

func TestAddFacts(t *testing.T) {
	p := &Program{}
	p.AddFacts(Fact{Pred: "e", Args: []value.Value{value.Int(1), value.Int(2)}})
	if len(p.Rules) != 1 || p.Rules[0].String() != "e(1, 2)." {
		t.Errorf("AddFacts produced %v", p.Rules)
	}
}
