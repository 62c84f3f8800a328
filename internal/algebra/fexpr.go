// Package algebra implements the paper's algebra and IFP-algebra (Section
// 3.1): generic set operators ∪, −, ×, σ_test, MAP_f and the inflationary
// fixed point IFP_exp, over the complex-object value universe of
// internal/value.
//
// Two expression languages live here. FExpr is the first-order language of
// element-level functions and tests that parameterizes σ and MAP — the
// concrete counterpart of the paper's "a special specification must be
// provided for every specific function"; its operators are defined in
// internal/builtin's table, which datalog's function symbols share. Expr is
// the language of set-valued algebra expressions.
//
// The package evaluates non-recursive expressions (plus IFP) against a
// database of named finite sets. Recursive *definitions* — the algebra= of
// Section 3.2, the paper's contribution — live in internal/core, which gives
// them their valid-model semantics; algebra only supplies the operator
// evaluation core and the syntactic analyses (free relation names, positive
// occurrence) the rest of the system needs.
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

// FExpr is an element-level expression: the body of a selection test or a
// MAP restructuring function. It is evaluated against an environment binding
// element variables to values. Its operators — projection, comparison,
// arithmetic, the connectives and membership — are entries of
// internal/builtin's table, which datalog's function symbols share. FExpr is
// a sealed interface.
type FExpr interface {
	String() string
	isFExpr()
}

// FVar references a bound element variable (the σ/MAP element, or a tuple
// component brought into scope by the evaluator).
type FVar struct{ Name string }

// FConst is a constant value.
type FConst struct{ V value.Value }

// FField projects the Idx-th component (1-based) of a tuple-valued
// subexpression; the paper writes this x.i.
type FField struct {
	Of  FExpr
	Idx int
}

// FTuple builds a tuple from component expressions.
type FTuple struct{ Elems []FExpr }

// FCmp compares two subexpressions under the total order on values.
type FCmp struct {
	Op   builtin.Cmp
	L, R FExpr
}

// FArith applies integer arithmetic.
type FArith struct {
	Op   builtin.Arith
	L, R FExpr
}

// FAnd is boolean conjunction.
type FAnd struct{ L, R FExpr }

// FOr is boolean disjunction.
type FOr struct{ L, R FExpr }

// FNot is boolean negation. Note this negates a *test over elements*; it is
// unrelated to the negation-as-subtraction the paper's semantics is about.
type FNot struct{ E FExpr }

// FMem tests membership of an element in a set value (the paper's MEM as a
// boolean-valued function on finite set values).
type FMem struct{ Elem, Set FExpr }

func (FVar) isFExpr()   {}
func (FConst) isFExpr() {}
func (FField) isFExpr() {}
func (FTuple) isFExpr() {}
func (FCmp) isFExpr()   {}
func (FArith) isFExpr() {}
func (FAnd) isFExpr()   {}
func (FOr) isFExpr()    {}
func (FNot) isFExpr()   {}
func (FMem) isFExpr()   {}

// String implements FExpr.
func (e FVar) String() string { return e.Name }

// String implements FExpr.
func (e FConst) String() string { return e.V.String() }

// String implements FExpr.
func (e FField) String() string { return maybeParen(e.Of) + "." + strconv.Itoa(e.Idx) }

// String implements FExpr. A 1-tuple prints with a trailing comma, "(e,)",
// to stay distinguishable from parenthesized grouping when re-parsed.
func (e FTuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	if len(parts) == 1 {
		return "(" + parts[0] + ",)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// String implements FExpr.
func (e FCmp) String() string {
	return maybeParen(e.L) + " " + e.Op.String() + " " + maybeParen(e.R)
}

// String implements FExpr.
func (e FArith) String() string {
	return maybeParen(e.L) + " " + e.Op.String() + " " + maybeParen(e.R)
}

// String implements FExpr.
func (e FAnd) String() string { return maybeParen(e.L) + " and " + maybeParen(e.R) }

// String implements FExpr.
func (e FOr) String() string { return maybeParen(e.L) + " or " + maybeParen(e.R) }

// String implements FExpr.
func (e FNot) String() string { return "not " + maybeParen(e.E) }

// String implements FExpr.
func (e FMem) String() string { return maybeParen(e.Elem) + " in " + maybeParen(e.Set) }

func maybeParen(e FExpr) string {
	switch e.(type) {
	case FVar, FConst, FField, FTuple:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// FEnv binds element variables during FExpr evaluation.
type FEnv map[string]value.Value

// EvalF evaluates an element-level expression. Kind errors (projecting a
// non-tuple, arithmetic on non-integers, boolean operators on non-booleans)
// are reported as errors, never panics: the languages here are dynamically
// kinded, mirroring the paper's untyped presentation.
func EvalF(e FExpr, env FEnv) (value.Value, error) {
	switch ee := e.(type) {
	case FVar:
		v, ok := env[ee.Name]
		if !ok {
			return nil, fmt.Errorf("algebra: unbound element variable %q", ee.Name)
		}
		return v, nil
	case FConst:
		return ee.V, nil
	case FField:
		v, err := EvalF(ee.Of, env)
		if err != nil {
			return nil, err
		}
		return builtin.Field(v, ee.Idx)
	case FTuple:
		elems := make([]value.Value, len(ee.Elems))
		for i, el := range ee.Elems {
			v, err := EvalF(el, env)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return value.NewTuple(elems...), nil
	case FCmp:
		l, r, err := evalPair(ee.L, ee.R, env)
		if err != nil {
			return nil, err
		}
		return value.Bool(ee.Op.Holds(l.Compare(r))), nil
	case FArith:
		l, r, err := evalPair(ee.L, ee.R, env)
		if err != nil {
			return nil, err
		}
		return ee.Op.Eval(l, r)
	case FAnd:
		return evalConnective(builtin.Band, ee.L, ee.R, env)
	case FOr:
		return evalConnective(builtin.Bor, ee.L, ee.R, env)
	case FNot:
		v, err := EvalF(ee.E, env)
		if err != nil {
			return nil, err
		}
		return builtin.Bnot.Call1(v)
	case FMem:
		el, s, err := evalPair(ee.Elem, ee.Set, env)
		if err != nil {
			return nil, err
		}
		return builtin.Ismem.Call2(el, s)
	default:
		panic(fmt.Sprintf("algebra: unknown FExpr %T", e))
	}
}

func evalPair(l, r FExpr, env FEnv) (value.Value, value.Value, error) {
	a, err := EvalF(l, env)
	if err != nil {
		return nil, nil, err
	}
	b, err := EvalF(r, env)
	return a, b, err
}

// evalConnective evaluates the second argument of and/or only when the first
// does not decide the result, as datalog's band/bor do.
func evalConnective(f *builtin.Func, l, r FExpr, env FEnv) (value.Value, error) {
	a, err := EvalF(l, env)
	if err != nil || f.Decides(a) {
		return a, err
	}
	b, err := EvalF(r, env)
	if err != nil {
		return nil, err
	}
	return f.Call2(a, b)
}

// EvalTest evaluates a selection test to a boolean.
func EvalTest(e FExpr, env FEnv) (bool, error) {
	v, err := EvalF(e, env)
	if err != nil {
		return false, err
	}
	return builtin.Bool(v)
}
