package query

import (
	"math"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog/rel"
	"algrec/internal/value"
)

// edgesOver builds a relation of m pairs over the given nodes, picked by a
// fixed xorshift so that every run sees the same relation.
func edgesOver(nodes []value.Value, m int) value.Set {
	x := uint64(2463534242)
	next := func() value.Value {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return nodes[x%uint64(len(nodes))]
	}
	elems := make([]value.Value, m)
	for i := range elems {
		elems[i] = value.NewTuple(next(), next())
	}
	return value.NewSet(elems...)
}

// TestAnswerTextMatchesReference: the text of an expression answer the kernel
// computes is, byte for byte, the reference evaluator's set printed — for
// nested shapes, for columns the integers cannot order, at the extremes of
// the integers, for no elements, and for answers on either side of the size
// from which the rows are ordered by their integers.
func TestAnswerTextMatchesReference(t *testing.T) {
	ints := func(xs ...int64) []value.Value {
		out := make([]value.Value, len(xs))
		for i, x := range xs {
			out[i] = value.Int(x)
		}
		return out
	}
	words := []value.Value{
		value.String("a"), value.String("b_2"), value.String("Big"), value.String("two words"),
		value.String(""), value.String(`a"q`), value.String("true"), value.String("z"),
	}
	extremes := ints(math.MinInt64, math.MinInt64+1, -1<<40, -300, -256, -1, 0, 1, 255, 256, 1<<40, math.MaxInt64-1, math.MaxInt64)
	for _, c := range []struct {
		name, src      string
		e              value.Set
		minLen, maxLen int
	}{
		{"alg-triangle's nested shape", textTriangle, digraph(12, 50), 1, math.MaxInt},
		{"strings and symbols", textTwoHop, edgesOver(words, 40), 1, math.MaxInt},
		{"every kind in one column", textTwoHop, edgesOver(append(ints(-3, 0, 7), value.Bool(false), value.Bool(true), words[0], words[3]), 30), 1, math.MaxInt},
		{"extreme integers", textTwoHop, edgesOver(extremes, 60), 65, math.MaxInt},
		{"an empty answer", textTwoHop, digraph(100, 2), 0, 0},
		{"below the radix", textTwoHop, digraph(100, 20), 1, 15},
		{"above the radix", textTwoHop, digraph(100, 400), 129, math.MaxInt},
	} {
		plan := mustCompile(t, LangAlgebra, SemValid, c.src)
		db := algebra.DB{"e": c.e}
		if why := route(plan, rel.NewBase(db), &rel.BaseUse{}); why != "" {
			t.Fatalf("%s: the kernel does not answer (%s)", c.name, why)
		}
		want, err := reference(plan.Expr, db, algebra.Budget{})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if n := want.Len(); n < c.minLen || n > c.maxLen {
			t.Fatalf("%s: the answer has %d elements, want %d to %d", c.name, n, c.minLen, c.maxLen)
		}
		var got strings.Builder
		WriteAlgqText(&got, mustExecute(t, plan, db, Options{}), false)
		if got.String() != want.String()+"\n" {
			t.Errorf("%s: served text\n%s\nwant\n%s", c.name, got.String(), want.String())
		}
	}
}
