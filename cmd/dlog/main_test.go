package main

import (
	"strings"
	"testing"
)

func runDlog(t *testing.T, args []string, input string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, strings.NewReader(input), &out)
	return out.String(), err
}

func TestRunValid(t *testing.T) {
	out, err := runDlog(t, []string{"-undef"}, `
move(a, a). move(a, b).
win(X) :- move(X, Y), not win(Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "win(a).") {
		t.Errorf("missing win(a) in:\n%s", out)
	}
	if !strings.Contains(out, "% undefined: (none)") {
		t.Errorf("undefined marker missing in:\n%s", out)
	}
}

func TestRunUndefined(t *testing.T) {
	out, err := runDlog(t, []string{"-undef"}, "move(a, a).\nwin(X) :- move(X, Y), not win(Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "% undefined: win(a)") {
		t.Errorf("undefined atom not reported:\n%s", out)
	}
}

func TestRunStable(t *testing.T) {
	out, err := runDlog(t, []string{"-semantics", "stable"},
		"move(a, b). move(b, a).\nwin(X) :- move(X, Y), not win(Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stable model 1 of 2") || !strings.Contains(out, "stable model 2 of 2") {
		t.Errorf("expected two stable models:\n%s", out)
	}
	// no stable models case
	out2, err := runDlog(t, []string{"-semantics", "stable"}, "p :- not p.\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "% no stable models") {
		t.Errorf("odd loop output:\n%s", out2)
	}
}

func TestRunPredFilterAndSemantics(t *testing.T) {
	src := "e(1, 2).\ntc(X, Y) :- e(X, Y).\nother(X) :- e(X, Y).\n"
	out, err := runDlog(t, []string{"-pred", "tc", "-semantics", "minimal"}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tc(1, 2).") || strings.Contains(out, "other") {
		t.Errorf("pred filter failed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := runDlog(t, nil, "p(X :- q."); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := runDlog(t, []string{"-semantics", "nope"}, "p.\n"); err == nil {
		t.Error("unknown semantics not surfaced")
	}
	if _, err := runDlog(t, []string{"-semantics", "stratified"}, "move(a, a).\nwin(X) :- move(X, Y), not win(Y).\n"); err == nil {
		t.Error("stratification error not surfaced")
	}
	if _, err := runDlog(t, []string{"nonexistent-file.dl"}, ""); err == nil {
		t.Error("missing file not surfaced")
	}
}

// TestRunKeyOrder pins the order and text of printed facts where the
// integers alone cannot order the rows: a predicate holding rows of two
// arities (a shorter row before its extensions, kinds in the value order), a
// nullary predicate, and string constants — on the relational engine and on
// the grounded one alike.
func TestRunKeyOrder(t *testing.T) {
	src := `p(1, 2). p(b). p(3). p(a, -1). p("Hello, world", 2). p(-7).
q.
r :- q.
s(X) :- p(X).
s(X) :- p(X, Y).
t(X, Y) :- p(X, Y).
t(X) :- p(X).
u("two words", "Big").
u(-9223372036854775808, 9223372036854775807).
v(X, Y) :- u(X, Y).
`
	want := `r().
s(-7).
s(1).
s(3).
s("Hello, world").
s(a).
s(b).
t(-7).
t(1, 2).
t(3).
t("Hello, world", 2).
t(a, -1).
t(b).
v(-9223372036854775808, 9223372036854775807).
v("two words", "Big").
`
	for _, sem := range []string{"valid", "stratified", "inflationary"} {
		out, err := runDlog(t, []string{"-semantics", sem}, src)
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if out != want {
			t.Errorf("%s: printed\n%s\nwant\n%s", sem, out, want)
		}
	}
}
