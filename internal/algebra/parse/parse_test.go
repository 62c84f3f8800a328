package parse

import (
	"strings"
	"testing"
	"unsafe"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/value"
)

func TestParseWinScript(t *testing.T) {
	script := MustParseScript(`
% the WIN game of Example 3
rel move = {(a, b), (b, c), (b, d)};
def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
query win;
`)
	if len(script.Queries) != 1 || len(script.Program.Defs) != 1 {
		t.Fatalf("script = %d queries, %d defs", len(script.Queries), len(script.Program.Defs))
	}
	res, err := core.EvalValid(script.Program, script.DB, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Set("win"), value.NewSet(value.String("b"))) {
		t.Errorf("win = %v, want {b}", res.Set("win"))
	}
}

func TestParseEvenNumbersScript(t *testing.T) {
	script := MustParseScript(`
def evens = select(union({0}, map(evens, \x -> x + 2)), \x -> x < 10);
`)
	res, err := core.EvalValid(script.Program, script.DB, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(value.Int(0), value.Int(2), value.Int(4), value.Int(6), value.Int(8))
	if !value.Equal(res.Set("evens"), want) {
		t.Errorf("evens = %v", res.Set("evens"))
	}
}

func TestParseParameterizedDefs(t *testing.T) {
	script := MustParseScript(`
rel r = {1, 2, 3};
rel s = {2, 3, 4};
def intersect(x, y) = diff(x, diff(x, y));
def q = intersect(r, s);
`)
	res, err := core.EvalValid(script.Program, script.DB, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Set("q"), value.NewSet(value.Int(2), value.Int(3))) {
		t.Errorf("q = %v", res.Set("q"))
	}
}

func TestParseIFP(t *testing.T) {
	e, err := ParseExpr(`ifp(x, union({1}, map(x, \y -> y * 2)))`)
	if err != nil {
		t.Fatal(err)
	}
	ifp, ok := e.(algebra.IFP)
	if !ok || ifp.Var != "x" {
		t.Fatalf("parsed %T %v", e, e)
	}
	// evaluating with a bound gives powers of two
	bounded, err := ParseExpr(`ifp(x, select(union({1}, map(x, \y -> y * 2)), \y -> y <= 8))`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Eval(bounded, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(value.Int(1), value.Int(2), value.Int(4), value.Int(8))
	if !value.Equal(got, want) {
		t.Errorf("powers = %v", got)
	}
}

func TestParseFExprForms(t *testing.T) {
	cases := []struct {
		src  string
		want string // expected value of query on singleton {input}
	}{
		{`map({(1, 2)}, \x -> x.2)`, "{2}"},
		{`map({3}, \x -> (x, x + 1))`, "{(3, 4)}"},
		{`select({1, 2, 3, 4}, \x -> x > 1 and x < 4)`, "{2, 3}"},
		{`select({1, 2, 3}, \x -> x = 1 or x = 3)`, "{1, 3}"},
		{`select({1, 2, 3}, \x -> not (x = 2))`, "{1, 3}"},
		{`select({1, 2, 5}, \x -> x in {1, 5})`, "{1, 5}"},
		{`select({1, 2, 3}, \x -> x != 2)`, "{1, 3}"},
		{`map({10}, \x -> x mod 3)`, "{1}"},
		{`map({10}, \x -> x - 3)`, "{7}"},
		{`select({a, b}, \x -> x = a)`, "{a}"},
		{`select({"A b", c}, \x -> x = "A b")`, `{"A b"}`},
		{`select({true, false}, \x -> x)`, "{true}"},
		{`union(empty, {1})`, "{1}"},
		{`map({((1, 2), 5)}, \x -> x.1.2)`, "{2}"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		got, err := algebra.Eval(e, algebra.DB{})
		if err != nil {
			t.Errorf("eval %q: %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseValueLiterals(t *testing.T) {
	script := MustParseScript(`
rel mixed = {1, -5, a, "quoted \"str\"", true, (1, (2, 3)), {1, 2}, {}};
`)
	s := script.DB["mixed"]
	if s.Len() != 8 {
		t.Fatalf("mixed has %d elements: %v", s.Len(), s)
	}
	for _, v := range []value.Value{
		value.Int(-5), value.String("a"), value.String(`quoted "str"`), value.True,
		value.NewTuple(value.Int(1), value.NewTuple(value.Int(2), value.Int(3))),
		value.NewSet(value.Int(1), value.Int(2)), value.EmptySet,
	} {
		if !s.Has(v) {
			t.Errorf("missing %v in %v", v, s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`rel r = 5;`, "must be bound to a set"},
		{`rel r = {1}; rel r = {2};`, "defined twice"},
		{`def f = union({1});`, "unexpected token"},
		{`def f = ;`, "expected a set expression"},
		{`frobnicate x;`, "expected 'rel', 'def' or 'query'"},
		{`def f = select({1}, \x -> );`, "expected an element expression"},
		{`def f = map({1}, x -> x);`, "unexpected token"},
		{`rel r = {"unterminated};`, "unterminated string"},
		{`def f = g(h());`, "expected a set expression"}, // h() with no args
		{`def f = {1} !`, "unexpected '!'"},
		{`def f = ifp(x, x) extra`, "unexpected token"},
		{`query union({1}, {2})`, "unexpected token"}, // missing semicolon
		{`def f = map({1}, \x -> x.0);`, "bad projection index"},
		{`def dup = {1}; def dup = {2};`, "duplicate definition"},
		{`def f = undefcall({1});`, "undefined operation"},
	}
	for _, c := range cases {
		_, err := ParseScript(c.src)
		if err == nil {
			t.Errorf("parse %q: expected error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("parse %q: error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseTupleForms(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{()}`, "{()}"},                            // empty tuple value
		{`map({()}, \x -> (5,))`, "{(5)}"},          // 1-tuple via trailing comma
		{`map({()}, \x -> ())`, "{()}"},             // empty tuple fexpr
		{`map({(7)}, \x -> x.1)`, "{7}"},            // 1-tuple value, projected
		{`map({1}, \x -> (x, x + 1,))`, "{(1, 2)}"}, // trailing comma on n-tuple
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		got, err := algebra.Eval(e, algebra.DB{})
		if err != nil {
			t.Errorf("eval %q: %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

// TestTranslatorOutputReparses: a translated program printed by algtrans
// re-parses and evaluates to the same result — the printed concrete syntax
// is faithful, including unit sets {()} and 1-tuples (e,).
func TestTranslatorOutputReparses(t *testing.T) {
	orig := MustParseScript(`
rel move = {(a, a), (a, b), (b, c)};
def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
`)
	res, err := core.EvalValid(orig.Program, orig.DB, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	printed := orig.Program.String()
	reparsed := MustParseScript(printed)
	res2, err := core.EvalValid(reparsed.Program, orig.DB, algebra.Budget{})
	if err != nil {
		t.Fatalf("re-parsed program failed: %v\nprinted:\n%s", err, printed)
	}
	if !value.Equal(res.Set("win"), res2.Set("win")) || !value.Equal(res.UndefElems("win"), res2.UndefElems("win")) {
		t.Errorf("round trip changed semantics: %v/%v vs %v/%v",
			res.Set("win"), res.UndefElems("win"), res2.Set("win"), res2.UndefElems("win"))
	}
}

func TestParseExprTrailing(t *testing.T) {
	if _, err := ParseExpr("union({1}, {2}) junk"); err == nil {
		t.Error("expected trailing-input error")
	}
}

func TestLambdaScoping(t *testing.T) {
	// Outside a lambda binder, identifiers are symbol constants; inside, the
	// bound name is a variable and other names stay constants.
	e, err := ParseExpr(`select({a, b}, \x -> x = b)`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Eval(e, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.NewSet(value.String("b"))) {
		t.Errorf("scoping result = %v", got)
	}
	// Nested lambdas shadow correctly.
	e2, err := ParseExpr(`map({1}, \x -> (x, x))`)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := algebra.Eval(e2, algebra.DB{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got2, value.NewSet(value.Pair(value.Int(1), value.Int(1)))) {
		t.Errorf("nested = %v", got2)
	}
}

// TestErrorPositionsAfterTokens pins the line:col and the token text of the
// error raised by a bad token right after each multi-byte token kind — an
// integer, a negative integer, an identifier, a string — on the first line
// and on the third, after a comment line and a CRLF line break, so that a
// lexer rewrite keeps its position tracking exact.
func TestErrorPositionsAfterTokens(t *testing.T) {
	const line3 = "rel a = {1};\r\n% a comment, then a tab\n\t"
	cases := []struct{ src, want string }{
		{`rel r = {12 x};`, `1:13: unexpected token "x"`},
		{`rel r = {12x};`, `1:12: unexpected token "x"`},
		{`rel r = {12#};`, `1:12: unexpected character "#"`},
		{`rel r = {-12 x};`, `1:14: unexpected token "x"`},
		{`rel r = {(-12)y};`, `1:15: unexpected token "y"`},
		{`rel r = {-12!};`, `1:13: unexpected '!'`},
		{`rel r = {ab 7};`, `1:13: unexpected token "7"`},
		{`rel r = {ab_9"s"};`, `1:14: unexpected token "s"`},
		{`rel r = {ab@};`, `1:12: unexpected character "@"`},
		{`rel r = {"s\"t" 7};`, `1:17: unexpected token "7"`},
		{`rel r = {"s"x};`, `1:13: unexpected token "x"`},
		{`rel r = {"\q"};`, `1:10: bad string literal "\q": invalid syntax`},
		{`query map({1}, \x -> x.1y);`, `1:25: unexpected token "y"`},
		{line3 + `rel r = {12 x};`, `3:14: unexpected token "x"`},
		{line3 + `rel r = {12#};`, `3:13: unexpected character "#"`},
		{line3 + `rel r = {-12 x};`, `3:15: unexpected token "x"`},
		{line3 + `rel r = {-12!};`, `3:14: unexpected '!'`},
		{line3 + `rel r = {ab 7};`, `3:14: unexpected token "7"`},
		{line3 + `rel r = {ab@};`, `3:13: unexpected character "@"`},
		{line3 + `rel r = {"s\"t" 7};`, `3:18: unexpected token "7"`},
		{line3 + `rel r = {"s"x};`, `3:14: unexpected token "x"`},
		{line3 + `rel r = {"unterminated};`, `3:11: unterminated string`},
		{line3 + `def f = map({1}, \x -> x.1y);`, `3:28: unexpected token "y"`},
	}
	for _, c := range cases {
		_, err := ParseScript(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("parse %q: error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestParseResultKeepsNoSourceBytes checks that no name or string a parse
// result keeps shares the source's bytes: tokens are substrings of the
// source, and one kept substring would pin the whole script — a large
// database script for as long as its database lives.
func TestParseResultKeepsNoSourceBytes(t *testing.T) {
	src := `rel edge = {(a, "b c"), (b, c)};
def reach(x) = ifp(s, union(x, map(select(product(s, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))));
def tagged = map(edge, \e -> (e.1, tag, "lit"));
query reach(edge);
`
	script, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	check := func(what, s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("%s %q shares the source's bytes", what, s)
		}
	}
	var values func(v value.Value)
	values = func(v value.Value) {
		switch vv := v.(type) {
		case value.String:
			check("the value", string(vv))
		case value.Tuple:
			for i := range vv.Len() {
				values(vv.At(i))
			}
		case value.Set:
			for i := range vv.Len() {
				values(vv.At(i))
			}
		}
	}
	for name, set := range script.DB {
		check("the relation name", name)
		values(set)
	}
	var exprs func(e algebra.Expr)
	var fexprs func(f algebra.FExpr)
	exprs = func(e algebra.Expr) {
		switch ee := e.(type) {
		case algebra.Rel:
			check("the name", ee.Name)
		case algebra.Call:
			check("the call", ee.Name)
		case algebra.IFP:
			check("the fixpoint variable", ee.Var)
		case algebra.Select:
			check("the variable", ee.Var)
			fexprs(ee.Test)
		case algebra.Map:
			check("the variable", ee.Var)
			fexprs(ee.Out)
		}
		for _, k := range algebra.Children(e) {
			exprs(k)
		}
	}
	fexprs = func(f algebra.FExpr) {
		switch ff := f.(type) {
		case algebra.FVar:
			check("the variable", ff.Name)
		case algebra.FConst:
			values(ff.V)
		case algebra.FField:
			fexprs(ff.Of)
		case algebra.FCmp:
			fexprs(ff.L)
			fexprs(ff.R)
		case algebra.FTuple:
			for _, el := range ff.Elems {
				fexprs(el)
			}
		}
	}
	for _, d := range script.Program.Defs {
		check("the definition", d.Name)
		for _, p := range d.Params {
			check("the parameter", p)
		}
		exprs(d.Body)
	}
	for _, q := range script.Queries {
		exprs(q.Expr)
	}
}
