package lex

import "testing"

// TestTokens lists the tokens, with their positions, of input that has every
// kind: the operators of both languages side by side, a negative integer
// beside a minus and an integer, a projection chain, comments, a CRLF line
// break, tabs and escaped strings.
func TestTokens(t *testing.T) {
	src := "p(X) :- q(X, -12), - 12 >= x.1.2. % a comment\r\n" +
		"\tdef f = map({a}, \\y -> y * 2 + \"s\\\"t\\n\");\n" +
		"% only a comment\n" +
		"a != b; a <= b < c > d = e\t\"\" %"
	type tok struct {
		kind      Kind
		text      string
		line, col int
	}
	want := []tok{
		{Ident, "p", 1, 1}, {LParen, "(", 1, 2}, {Ident, "X", 1, 3}, {RParen, ")", 1, 4},
		{Implies, ":-", 1, 6}, {Ident, "q", 1, 9}, {LParen, "(", 1, 10}, {Ident, "X", 1, 11},
		{Comma, ",", 1, 12}, {Int, "-12", 1, 14}, {RParen, ")", 1, 17}, {Comma, ",", 1, 18},
		{Minus, "-", 1, 20}, {Int, "12", 1, 22}, {Ge, ">=", 1, 25}, {Ident, "x", 1, 28},
		{Dot, ".", 1, 29}, {Int, "1", 1, 30}, {Dot, ".", 1, 31}, {Int, "2", 1, 32}, {Dot, ".", 1, 33},
		{Ident, "def", 2, 2}, {Ident, "f", 2, 6}, {Eq, "=", 2, 8}, {Ident, "map", 2, 10},
		{LParen, "(", 2, 13}, {LBrace, "{", 2, 14}, {Ident, "a", 2, 15}, {RBrace, "}", 2, 16},
		{Comma, ",", 2, 17}, {Backslash, `\`, 2, 19}, {Ident, "y", 2, 20}, {Arrow, "->", 2, 22},
		{Ident, "y", 2, 25}, {Star, "*", 2, 27}, {Int, "2", 2, 29}, {Plus, "+", 2, 31},
		{String, "s\"t\n", 2, 33}, {RParen, ")", 2, 41}, {Semi, ";", 2, 42},
		{Ident, "a", 4, 1}, {Ne, "!=", 4, 3}, {Ident, "b", 4, 6}, {Semi, ";", 4, 7},
		{Ident, "a", 4, 9}, {Le, "<=", 4, 11}, {Ident, "b", 4, 14}, {Lt, "<", 4, 16},
		{Ident, "c", 4, 18}, {Gt, ">", 4, 20}, {Ident, "d", 4, 22}, {Eq, "=", 4, 24},
		{Ident, "e", 4, 26}, {String, "", 4, 28}, {EOF, "", 4, 32}, {EOF, "", 4, 32},
	}
	l := New(src)
	for i, w := range want {
		got, err := l.Next()
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if g := (tok{got.Kind, got.Text, got.Line, got.Col}); g != w {
			t.Fatalf("token %d = %v %q at %d:%d, want %v %q at %d:%d",
				i, g.kind, g.text, g.line, g.col, w.kind, w.text, w.line, w.col)
		}
	}
}

// TestErrors gives the exact error of each lexical fault, at the fault's
// first byte, after the tokens before it.
func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a #", `1:3: unexpected character "#"`},
		{"a\r\n\t@b", `2:2: unexpected character "@"`},
		{"p(é)", `1:3: unexpected character "é"`},
		{"p(\xff)", `1:3: unexpected character "\xff"`},
		{"a ! b", "1:3: unexpected '!'"},
		{"p(X) : q", "1:6: unexpected ':'"},
		{`x = "open`, "1:5: unterminated string"},
		{"x = \"line\nbreak\"", "1:5: unterminated string"},
		{`x = "esc\`, "1:5: unterminated escape"},
		{`% c` + "\n" + `  "\q"`, `2:3: bad string literal "\q": invalid syntax`},
	}
	for _, c := range cases {
		l := New(c.src)
		var err error
		for tok := (Token{}); err == nil; {
			if tok, err = l.Next(); err == nil && tok.Kind == EOF {
				break
			}
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("lexing %q: error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestKindNames checks that every kind has a name of its own, and that the
// comparisons are the six kinds named by a comparison operator.
func TestKindNames(t *testing.T) {
	cmps := map[string]bool{"'='": true, "'!='": true, "'<'": true, "'<='": true, "'>'": true, "'>='": true}
	seen := map[string]bool{}
	for k := EOF; k <= Implies; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kind %d is named %q", k, name)
		}
		seen[name] = true
		if k.IsCmp() != cmps[name] {
			t.Errorf("%s: IsCmp = %v", k, k.IsCmp())
		}
	}
	if Ident.String() != "identifier" || Implies.String() != "':-'" || EOF.String() != "end of input" {
		t.Errorf("names: %s, %s, %s", Ident, Implies, EOF)
	}
}
