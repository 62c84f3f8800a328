package datalog

import "testing"

// FuzzParseProgram checks two robustness properties of the parser on
// arbitrary input: it never panics, and for accepted input the printed form
// is a fixpoint of parse-then-print (print ∘ parse is idempotent).
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		"edge(1, 2).\n",
		"tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
		"win(X) :- move(X, Y), not win(Y).\n",
		"q(Y) :- d(X), Y = plus(X, 1), Y < 10.\n",
		"p((a, 1)). s({1, {2}}).\n",
		`str("hello \"world\"").`,
		"p(-5). zero :- not one.",
		"% comment only",
		"p(X) :- q(X), X != 3, not r(X, X).",
		"bad(((((",
		"p(X) :- .",
		"{}({})",
		"p(Y) :- r(X), Y = plus(X).", // a wrong argument count: rejected
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := p.String()
		p2, err := ParseProgram(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if p2.String() != printed {
			t.Fatalf("print not idempotent:\nfirst:  %q\nsecond: %q", printed, p2.String())
		}
	})
}
