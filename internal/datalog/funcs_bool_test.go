package datalog

import (
	"testing"

	"algrec/internal/value"
)

// TestBooleanBuiltins covers the boolean-valued interpreted functions that
// the algebra-to-deduction translation compiles selection tests into.
func TestBooleanBuiltins(t *testing.T) {
	tr, fa := Const{V: value.True}, Const{V: value.False}
	one, two := CInt(1), CInt(2)
	set12 := Apply{Fn: "set", Args: []Term{one, two}}
	cases := []struct {
		t    Term
		want value.Value
	}{
		{Apply{Fn: "band", Args: []Term{tr, tr}}, value.True},
		{Apply{Fn: "band", Args: []Term{tr, fa}}, value.False},
		{Apply{Fn: "bor", Args: []Term{fa, tr}}, value.True},
		{Apply{Fn: "bor", Args: []Term{fa, fa}}, value.False},
		{Apply{Fn: "bnot", Args: []Term{fa}}, value.True},
		{Apply{Fn: "eq", Args: []Term{one, one}}, value.True},
		{Apply{Fn: "eq", Args: []Term{one, two}}, value.False},
		{Apply{Fn: "ne", Args: []Term{one, two}}, value.True},
		{Apply{Fn: "lt", Args: []Term{one, two}}, value.True},
		{Apply{Fn: "le", Args: []Term{two, two}}, value.True},
		{Apply{Fn: "gt", Args: []Term{one, two}}, value.False},
		{Apply{Fn: "ge", Args: []Term{two, one}}, value.True},
		{Apply{Fn: "ismem", Args: []Term{one, set12}}, value.True},
		{Apply{Fn: "ismem", Args: []Term{CInt(3), set12}}, value.False},
		// comparisons apply to any kinds via the total order
		{Apply{Fn: "eq", Args: []Term{CSym("a"), CSym("a")}}, value.True},
		{Apply{Fn: "lt", Args: []Term{tr, one}}, value.True}, // bool < int by kind
		// a connective's deciding first argument is its result: the second,
		// ill-kinded here, is not evaluated, as in an algebra λ-body
		{Apply{Fn: "band", Args: []Term{fa, Apply{Fn: "plus", Args: []Term{one, tr}}}}, value.False},
		{Apply{Fn: "bor", Args: []Term{tr, Apply{Fn: "plus", Args: []Term{one, tr}}}}, value.True},
	}
	for _, c := range cases {
		got, err := EvalTerm(c.t, Binding{})
		if err != nil {
			t.Errorf("EvalTerm(%s): %v", c.t, err)
			continue
		}
		if !value.Equal(got, c.want) {
			t.Errorf("EvalTerm(%s) = %v, want %v", c.t, got, c.want)
		}
	}
	// kind errors
	bad := []Term{
		Apply{Fn: "band", Args: []Term{one, tr}},
		Apply{Fn: "band", Args: []Term{tr, one}},
		Apply{Fn: "band", Args: []Term{tr}},
		Apply{Fn: "bor", Args: []Term{one, one}},
		Apply{Fn: "bnot", Args: []Term{one}},
		Apply{Fn: "bnot", Args: []Term{}},
		Apply{Fn: "eq", Args: []Term{one}},
		Apply{Fn: "ismem", Args: []Term{one, two}},
		Apply{Fn: "ismem", Args: []Term{one}},
	}
	for _, b := range bad {
		if _, err := EvalTerm(b, Binding{}); err == nil {
			t.Errorf("EvalTerm(%s): expected error", b)
		}
	}
}

func TestIsBuiltin(t *testing.T) {
	for _, fn := range []string{"succ", "plus", "tup", "field", "band", "ismem", "set", "ins"} {
		if !IsBuiltin(fn) {
			t.Errorf("IsBuiltin(%s) = false", fn)
		}
	}
	if IsBuiltin("nosuch") || IsBuiltin("not") {
		t.Error("IsBuiltin accepted unknown name")
	}
}
