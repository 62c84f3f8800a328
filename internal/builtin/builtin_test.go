package builtin

import (
	"errors"
	"math"
	"strings"
	"testing"

	"algrec/internal/value"
)

func TestCmp(t *testing.T) {
	one, two := value.Int(1), value.Int(2)
	cases := []struct {
		op   Cmp
		l, r value.Value
		want bool
	}{
		{Eq, one, one, true}, {Eq, one, two, false},
		{Ne, one, two, true}, {Ne, one, one, false},
		{Lt, one, two, true}, {Lt, two, one, false},
		{Le, one, one, true}, {Le, two, one, false},
		{Gt, two, one, true}, {Gt, one, one, false},
		{Ge, one, one, true}, {Ge, one, two, false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.l.Compare(c.r)); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
		f, _ := Lookup(c.op.Name())
		if got, err := f.Call2(c.l, c.r); err != nil || got != value.Bool(c.want) {
			t.Errorf("%s(%v, %v) = %v, %v; want %v", c.op.Name(), c.l, c.r, got, err, c.want)
		}
	}
}

// TestOperatorSpellings: each operator is found by its symbol and by its
// datalog name, and nothing else is an operator.
func TestOperatorSpellings(t *testing.T) {
	for op := Eq; op <= Ge; op++ {
		for _, s := range []string{op.String(), op.Name()} {
			if got, ok := CmpOf(s); !ok || got != op {
				t.Errorf("CmpOf(%q) = %v, %v; want %v", s, got, ok, op)
			}
		}
	}
	for op := Plus; op <= Mod; op++ {
		for _, s := range []string{op.String(), op.Name()} {
			if got, ok := ArithOf(s); !ok || got != op {
				t.Errorf("ArithOf(%q) = %v, %v; want %v", s, got, ok, op)
			}
		}
	}
	for _, s := range []string{"", "==", "and", "band", "succ", "/"} {
		if _, ok := CmpOf(s); ok {
			t.Errorf("CmpOf(%q) accepted", s)
		}
		if _, ok := ArithOf(s); ok {
			t.Errorf("ArithOf(%q) accepted", s)
		}
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   Arith
		a, b int64
		want int64
	}{
		{Plus, math.MaxInt64, 1, math.MinInt64},
		{Minus, math.MinInt64, 1, math.MaxInt64},
		{Times, math.MaxInt64, 2, -2},
		{Mod, 7, -2, 1},
		{Mod, -7, 2, -1},
		{Mod, math.MinInt64, -1, 0},
	}
	for _, c := range cases {
		if got, err := c.op.Apply(c.a, c.b); err != nil || got != c.want {
			t.Errorf("%d %v %d = %d, %v; want %d", c.a, c.op, c.b, got, err, c.want)
		}
	}
	if _, err := Mod.Apply(1, 0); !errors.Is(err, ErrModByZero) {
		t.Errorf("1 mod 0: %v", err)
	}
	if _, err := Plus.Eval(value.Int(1), value.True); err == nil || !strings.Contains(err.Error(), "plus applied to non-int true") {
		t.Errorf("1 + true: %v", err)
	}
}

func TestCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		err  string
	}{
		{"plus", 2, ""},
		{"tup", 0, ""},
		{"set", 5, ""},
		{"plus", 1, "plus expects 2 arguments, got 1"},
		{"succ", 2, "succ expects 1 argument, got 2"},
		{"nosuch", 1, `unknown function symbol "nosuch"`},
	} {
		got := ""
		if _, err := Check(c.name, c.n); err != nil {
			got = err.Error()
		}
		if got != c.err {
			t.Errorf("Check(%s, %d) = %q, want %q", c.name, c.n, got, c.err)
		}
	}
}

// TestDecides: a connective's first argument decides its result only when it
// is the connective's absorbing value.
func TestDecides(t *testing.T) {
	for _, c := range []struct {
		f    *Func
		a    value.Value
		want bool
	}{
		{Band, value.False, true}, {Band, value.True, false}, {Band, value.Int(0), false},
		{Bor, value.True, true}, {Bor, value.False, false}, {Bor, value.NewSet(), false},
		{Bnot, value.False, false}, {Ismem, value.True, false},
	} {
		if got := c.f.Decides(c.a); got != c.want {
			t.Errorf("%s decided by %v = %v, want %v", c.f.Name(), c.a, got, c.want)
		}
	}
}
